#ifndef PTLDB_TTL_QUERY_H_
#define PTLDB_TTL_QUERY_H_

#include "common/time_util.h"
#include "ttl/label.h"

namespace ptldb {

/// Main-memory TTL queries over a TtlIndex (Section 2.2 of the paper).
/// Each query inspects only L_out(s) and L_in(g) and picks the best of the
/// three TTL candidate cases: (i) tuples of L_out(s) with hub == g,
/// (ii) tuples of L_in(g) with hub == s, (iii) joined tuple pairs with a
/// common hub and l1.ta <= l2.td.
///
/// These are the reference answers the PTLDB database queries are tested
/// against; they work with or without dummy tuples.

/// Earliest arrival at g over journeys leaving s no sooner than t;
/// EventTime::Infinity() when no journey qualifies.
EventTime TtlEarliestArrival(const TtlIndex& index, StopId s, StopId g,
                             EventTime t);

/// Latest departure from s over journeys reaching g no later than t_end;
/// EventTime::NegInfinity() when no journey qualifies.
EventTime TtlLatestDeparture(const TtlIndex& index, StopId s, StopId g,
                             EventTime t_end);

/// Shortest duration over journeys inside [t, t_end]; Duration::Infinity()
/// when no
/// journey qualifies.
Duration TtlShortestDuration(const TtlIndex& index, StopId s, StopId g,
                             EventTime t, EventTime t_end);

/// The unified single-join variants used by PTLDB's SQL (Code 1): only case
/// (iii) is evaluated, which is complete once dummy tuples are present
/// (Theorem 3.1.1). The test suite checks these against the three-case
/// versions above to validate the dummy-tuple construction.
EventTime TtlEarliestArrivalJoinOnly(const TtlIndex& index, StopId s,
                                     StopId g, EventTime t);
EventTime TtlLatestDepartureJoinOnly(const TtlIndex& index, StopId s,
                                     StopId g, EventTime t_end);
Duration TtlShortestDurationJoinOnly(const TtlIndex& index, StopId s,
                                     StopId g, EventTime t, EventTime t_end);

}  // namespace ptldb

#endif  // PTLDB_TTL_QUERY_H_
