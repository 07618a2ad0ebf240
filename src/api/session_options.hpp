// lazyhb/api/session_options.hpp
//
// The one mapping from the public run knobs (Session's setters) to the
// engine: Session::run explores one program under it, Suite::run and the
// CLI's `bench` run a campaign under it.

#pragma once

#include "campaign/campaign.hpp"
#include "lazyhb/session.hpp"

namespace lazyhb {

/// The campaign options `session` describes: CampaignOptions::explorer and
/// ::seed from its knobs, every other field at its default. Throws
/// std::invalid_argument for an unknown memory model name.
[[nodiscard]] campaign::CampaignOptions sessionOptions(const Session& session);

}  // namespace lazyhb
