// Known-buggy benchmarks: assertion failures, atomicity violations, lost
// signals and deadlocks, modelled on the classic SCT bug suites (Inspect /
// SV-COMP / SCTBench: reorder, twostage, wronglock, stateful01, airline...).
// They keep the corpus honest: a partial-order reduction must find every one
// of these violations while exploring fewer schedules, and the test suite
// asserts exactly that.

#include <memory>
#include <vector>

#include "programs/registry.hpp"
#include "runtime/api.hpp"

namespace lazyhb::programs::detail {

namespace {

using namespace lazyhb;

/// AB–BA deadlock between two threads.
explore::Program deadlockAb() {
  return [] {
    Mutex a("a");
    Mutex b("b");
    auto t = spawn([&] {
      LockGuard first(b);
      LockGuard second(a);
    });
    {
      LockGuard first(a);
      LockGuard second(b);
    }
    t.join();
  };
}

/// Circular lock acquisition over a ring of three mutexes.
explore::Program deadlockRing(int size) {
  return [size] {
    std::vector<std::unique_ptr<Mutex>> locks;
    for (int i = 0; i < size; ++i) {
      locks.push_back(std::make_unique<Mutex>("ring"));
    }
    std::vector<ThreadHandle> workers;
    for (int i = 0; i < size; ++i) {
      workers.push_back(spawn([&, i] {
        LockGuard mine(*locks[static_cast<std::size_t>(i)]);
        LockGuard next(*locks[static_cast<std::size_t>((i + 1) % size)]);
      }));
    }
    for (auto& w : workers) w.join();
  };
}

/// "wronglock": threads believe they protect the counter, but each uses a
/// different mutex — a lost update slips through.
explore::Program wrongLock(int threads) {
  return [threads] {
    std::vector<std::unique_ptr<Mutex>> locks;
    for (int i = 0; i < threads; ++i) {
      locks.push_back(std::make_unique<Mutex>("wrong"));
    }
    Shared<int> counter{0, "counter"};
    std::vector<ThreadHandle> workers;
    for (int i = 0; i < threads; ++i) {
      workers.push_back(spawn([&, i] {
        LockGuard guard(*locks[static_cast<std::size_t>(i)]);  // wrong mutex!
        counter.store(counter.load() + 1);
      }));
    }
    for (auto& w : workers) w.join();
    checkAlways(counter.load() == threads, "no update lost");
  };
}

/// Atomicity violation: the check and the act are each locked, but the lock
/// is dropped in between.
explore::Program checkThenAct() {
  return [] {
    Mutex m("m");
    Shared<int> slot{0, "slot"};
    auto claim = [&](int who) {
      bool free = false;
      {
        LockGuard guard(m);
        free = slot.load() == 0;
      }
      // BUG: the state can change here.
      if (free) {
        LockGuard guard(m);
        checkAlways(slot.load() == 0, "slot still free when claimed");
        slot.store(who);
      }
    };
    auto t = spawn([&] { claim(2); });
    claim(1);
    t.join();
  };
}

/// Airline: sellers oversell the last seat because the seat check and the
/// sale are not atomic.
explore::Program airline(int sellers, int seats) {
  return [sellers, seats] {
    Mutex m("sales");
    Shared<int> sold{0, "sold"};
    std::vector<ThreadHandle> workers;
    for (int s = 0; s < sellers; ++s) {
      workers.push_back(spawn([&, seats] {
        const bool available = sold.load() < seats;  // unprotected check
        if (available) {
          LockGuard guard(m);
          sold.store(sold.load() + 1);
        }
      }));
    }
    for (auto& w : workers) w.join();
    checkAlways(sold.load() <= seats, "no overselling");
  };
}

/// SV-COMP "reorder": the author meant to publish data before the flag but
/// wrote the stores in the wrong order.
explore::Program reorder(int checkers) {
  return [checkers] {
    Shared<int> data{0, "data"};
    Shared<int> flag{0, "flag"};
    std::vector<ThreadHandle> workers;
    workers.push_back(spawn([&] {
      flag.store(1);  // BUG: flag published before data
      data.store(1);
    }));
    for (int c = 0; c < checkers; ++c) {
      workers.push_back(spawn([&] {
        if (flag.load() == 1) {
          checkAlways(data.load() == 1, "flag implies data");
        }
      }));
    }
    for (auto& w : workers) w.join();
  };
}

/// "twostage": a value and its cached copy are updated under two different
/// locks, and a reader can observe the window between the stages.
explore::Program twoStage() {
  return [] {
    Mutex l1("l1");
    Mutex l2("l2");
    Shared<int> data{0, "data"};
    Shared<int> cache{0, "cache"};
    auto t = spawn([&] {
      {
        LockGuard guard(l1);
        data.store(1);
      }
      // BUG: data and cache are momentarily inconsistent here.
      {
        LockGuard guard(l2);
        cache.store(1);
      }
    });
    int d = 0;
    int c = 0;
    {
      LockGuard guard(l1);
      d = data.load();
    }
    // The writer can be between its stages right here.
    {
      LockGuard guard(l2);
      c = cache.load();
    }
    checkAlways(!(d == 1 && c == 0), "cache keeps up with data");
    t.join();
  };
}

/// "stateful01": two lock-protected updates that do not commute; the final
/// assertion bakes in one order.
explore::Program stateful() {
  return [] {
    Mutex m("m");
    Shared<int> x{0, "x"};
    auto t = spawn([&] {
      LockGuard guard(m);
      x.store(x.load() + 1);
    });
    {
      LockGuard guard(m);
      x.store(x.load() * 2);
    }
    t.join();
    // Only the (+1 then *2) order yields 2; the other order yields 1.
    checkAlways(x.load() == 2, "assumed increment-then-double order");
  };
}

/// Lost signal: the waiter does not re-check a predicate, so a signal sent
/// before the wait deadlocks the waiter.
explore::Program lostSignal() {
  return [] {
    Mutex m("m");
    CondVar cv("cv");
    auto waiter = spawn([&] {
      LockGuard guard(m);
      cv.wait(m);  // BUG: no predicate loop
    });
    {
      LockGuard guard(m);
      cv.signal();
    }
    waiter.join();
  };
}

/// Unordered dining philosophers: both grab their left fork first.
explore::Program diningDeadlock(int philosophers) {
  return [philosophers] {
    std::vector<std::unique_ptr<Mutex>> forks;
    for (int i = 0; i < philosophers; ++i) {
      forks.push_back(std::make_unique<Mutex>("fork"));
    }
    std::vector<ThreadHandle> workers;
    for (int i = 0; i < philosophers; ++i) {
      workers.push_back(spawn([&, i] {
        LockGuard left(*forks[static_cast<std::size_t>(i)]);
        LockGuard right(*forks[static_cast<std::size_t>((i + 1) % philosophers)]);
      }));
    }
    for (auto& w : workers) w.join();
  };
}

}  // namespace

// Self-registration at rank kBuggyRank (only the weakmem family, ids
// 80..87, ranks after it). Every scenario here has a reachable violation;
// the bodies deliberately keep heap-based std::vector state, exercising the
// non-checkpointable (re-execution) incremental path.
#define LAZYHB_BUGGY(name, family, description, body)                      \
  [[maybe_unused]] static const ::lazyhb::programs::detail::          \
      CorpusRegistrar LAZYHB_SCENARIO_CAT(lazyhbCorpusRegistrar_,     \
                                          __COUNTER__){               \
          name, family, description, (body),                          \
          /*hasKnownBug=*/true, /*checkpointable=*/false, kBuggyRank}

LAZYHB_BUGGY("deadlock-ab", "deadlock", "AB-BA deadlock", deadlockAb());
LAZYHB_BUGGY("deadlock-ring-3", "deadlock", "3-mutex circular wait", deadlockRing(3));
LAZYHB_BUGGY("dining-deadlock-2", "deadlock",
             "2 philosophers, unordered forks", diningDeadlock(2));
LAZYHB_BUGGY("dining-deadlock-3", "deadlock",
             "3 philosophers, unordered forks", diningDeadlock(3));
LAZYHB_BUGGY("wronglock-2", "wronglock",
             "2 threads guard one var with 2 mutexes", wrongLock(2));
LAZYHB_BUGGY("wronglock-3", "wronglock",
             "3 threads guard one var with 3 mutexes", wrongLock(3));
LAZYHB_BUGGY("check-then-act", "atomicity",
             "lock dropped between check and act", checkThenAct());
LAZYHB_BUGGY("airline-2", "airline",
             "2 sellers, 1 seat, unprotected check", airline(2, 1));
LAZYHB_BUGGY("airline-3", "airline",
             "3 sellers, 2 seats, unprotected check", airline(3, 2));
LAZYHB_BUGGY("reorder-1", "reorder",
             "flag published before data, 1 checker", reorder(1));
LAZYHB_BUGGY("twostage", "twostage",
             "two-lock staged update, visible window", twoStage());
LAZYHB_BUGGY("stateful01", "stateful", "non-commutative locked updates", stateful());
LAZYHB_BUGGY("lost-signal", "lost-signal", "wait without predicate loop", lostSignal());

void linkBuggyScenarios() {}

}  // namespace lazyhb::programs::detail
