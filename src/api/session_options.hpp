// lazyhb/api/session_options.hpp
//
// The one mapping from the public run knobs (Session's setters) to the
// engine: Session::run explores one program under it, Suite::run and the
// CLI's `bench` run a campaign under it.

#pragma once

#include "campaign/campaign.hpp"
#include "lazyhb/session.hpp"

namespace lazyhb {

/// The campaign options `session` describes: its RunOptions sliced into
/// CampaignOptions::explorer, its seed into ::seed, every other field at its
/// default.
[[nodiscard]] campaign::CampaignOptions sessionOptions(const Session& session);

}  // namespace lazyhb
