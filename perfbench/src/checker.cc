// Answer checking: method properties, the src/baseline oracles, and the
// checker's own self-check.
#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "perfbench.h"

namespace perfbench {

namespace {

bool IsLd(QueryType type) {
  return type == QueryType::kV2vLd || type == QueryType::kLdKnn ||
         type == QueryType::kLdOtm;
}

std::string Str(EventTime t) { return std::to_string(t.raw_seconds()); }

std::string ListStr(const std::vector<StopTimeResult>& v) {
  std::ostringstream ss;
  ss << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    ss << (i ? " " : "") << v[i].stop << "@" << v[i].time.raw_seconds();
  }
  ss << "]";
  return ss.str();
}

/// kNN answers may break ties at the k-th position differently from a
/// full sorted list, so a kNN is compared by shape: the same times
/// position by position, and every reported stop carries its true time.
std::string KnnMatchesList(const std::vector<StopTimeResult>& got,
                           const std::vector<StopTimeResult>& full,
                           uint32_t k) {
  const size_t expected = std::min<size_t>(k, full.size());
  if (got.size() != expected) {
    return "kNN has " + std::to_string(got.size()) + " entries, expected " +
           std::to_string(expected) + " (full list " + ListStr(full) + ")";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].time != full[i].time) {
      return "kNN time " + Str(got[i].time) + " at position " +
             std::to_string(i) + " != " + Str(full[i].time) + " (full list " +
             ListStr(full) + ")";
    }
    const auto it =
        std::find_if(full.begin(), full.end(), [&](const StopTimeResult& r) {
          return r.stop == got[i].stop;
        });
    if (it == full.end() || it->time != got[i].time) {
      return "kNN stop " + std::to_string(got[i].stop) +
             " does not carry its true time (full list " + ListStr(full) +
             ")";
    }
  }
  return "";
}

}  // namespace

bool Checker::InTargets(StopId v) const {
  return std::binary_search(targets_.begin(), targets_.end(), v);
}

std::string Checker::Properties(const Request& r, const Answer& a) const {
  if (!a.status.ok()) return "status " + a.status.ToString();
  switch (r.type) {
    case QueryType::kV2vEa:
      if (a.time != EventTime::Infinity() && a.time < r.t) {
        return "EA " + Str(a.time) + " < t";
      }
      return "";
    case QueryType::kV2vLd:
      if (a.time != EventTime::NegInfinity() && a.time > r.t) {
        return "LD " + Str(a.time) + " > t_end";
      }
      return "";
    case QueryType::kV2vSd:
      if (a.duration != Duration::Infinity() &&
          a.duration < Duration::Zero()) {
        return "SD " + std::to_string(a.duration.raw_seconds()) + " < 0";
      }
      return "";
    default:
      break;
  }
  const bool knn =
      r.type == QueryType::kEaKnn || r.type == QueryType::kLdKnn;
  const bool ld = IsLd(r.type);
  const auto& res = a.results;
  if (knn && res.size() > k_) {
    return "kNN has " + std::to_string(res.size()) + " > k entries";
  }
  std::set<StopId> seen;
  for (size_t i = 0; i < res.size(); ++i) {
    if (!InTargets(res[i].stop)) {
      return "stop " + std::to_string(res[i].stop) + " is not in T";
    }
    if (!seen.insert(res[i].stop).second) {
      return "stop " + std::to_string(res[i].stop) + " reported twice";
    }
    if (ld ? res[i].time > r.t : res[i].time < r.t) {
      return "time " + Str(res[i].time) + " on the wrong side of t";
    }
    if (i > 0 && (ld ? res[i].time > res[i - 1].time
                     : res[i].time < res[i - 1].time)) {
      return "entries out of order at position " + std::to_string(i);
    }
  }
  return "";
}

std::string Checker::AgainstOracle(const Request& r, const Answer& a) const {
  if (std::string p = Properties(r, a); !p.empty()) return p;
  const ptldb::Timetable& tt = *tt_;
  switch (r.type) {
    case QueryType::kV2vEa: {
      const EventTime want = ptldb::EarliestArrival(tt, r.s, r.g, r.t);
      return a.time == want ? "" : "EA " + Str(a.time) + " != oracle " + Str(want);
    }
    case QueryType::kV2vLd: {
      const EventTime want = ptldb::LatestDeparture(tt, r.s, r.g, r.t);
      return a.time == want ? "" : "LD " + Str(a.time) + " != oracle " + Str(want);
    }
    case QueryType::kV2vSd: {
      const Duration want = ptldb::ShortestDuration(tt, r.s, r.g, r.t, r.t_end);
      return a.duration == want
                 ? ""
                 : "SD " + std::to_string(a.duration.raw_seconds()) +
                       " != oracle " + std::to_string(want.raw_seconds());
    }
    case QueryType::kEaKnn:
      return KnnMatchesList(
          a.results, ptldb::BruteEaOneToMany(tt, r.s, targets_, r.t), k_);
    case QueryType::kLdKnn:
      return KnnMatchesList(
          a.results, ptldb::BruteLdOneToMany(tt, r.s, targets_, r.t), k_);
    case QueryType::kEaOtm:
    case QueryType::kLdOtm: {
      const auto want = r.type == QueryType::kEaOtm
                            ? ptldb::BruteEaOneToMany(tt, r.s, targets_, r.t)
                            : ptldb::BruteLdOneToMany(tt, r.s, targets_, r.t);
      return a.results == want ? ""
                               : "one-to-many " + ListStr(a.results) +
                                     " != oracle " + ListStr(want);
    }
  }
  return "unknown query type";
}

std::string Checker::KnnPrefixOfOtm(const Answer& knn_answer,
                                    const Answer& otm_answer) const {
  if (!otm_answer.status.ok()) {
    return "one-to-many status " + otm_answer.status.ToString();
  }
  return KnnMatchesList(knn_answer.results, otm_answer.results, k_);
}

void Checker::Record(const Request& r, const std::string& problem) {
  if (problem.empty()) return;
  ++failed_;
  std::fprintf(stderr, "[perfbench] FAILED %s: %s\n", Describe(r).c_str(),
               problem.c_str());
}

bool CheckerSelfCheck(const Checker& checker,
                      const std::vector<std::pair<Request, Answer>>& sample,
                      uint32_t num_stops) {
  // The first non-target stop, for the "outside T" perturbation.
  StopId outsider = 0;
  while (outsider < num_stops &&
         std::binary_search(checker.targets().begin(),
                            checker.targets().end(), outsider)) {
    ++outsider;
  }
  std::fprintf(stderr,
               "[perfbench] checker self-check: each perturbed answer below "
               "must be reported FAILED\n");
  int planted = 0;
  int caught = 0;
  // Each perturbed answer goes through Record on a copy of the checker, the
  // same call that counts failures in a run.
  const auto expect_caught = [&](const Request& r, const Answer& bad) {
    ++planted;
    Checker probe = checker;
    probe.Record(r, probe.AgainstOracle(r, bad));
    if (probe.failed() == checker.failed() + 1) ++caught;
  };
  bool saw_v2v = false;
  bool saw_knn = false;
  for (const auto& [r, a] : sample) {
    if (!checker.AgainstOracle(r, a).empty()) continue;  // Not a clean base.
    if (r.type == QueryType::kV2vEa && !saw_v2v &&
        a.time != EventTime::Infinity()) {
      saw_v2v = true;
      Answer bad = a;
      bad.time = a.time + Duration::FromSeconds(1);  // Off by one second.
      expect_caught(r, bad);
    }
    if (r.type == QueryType::kEaKnn && !saw_knn && !a.results.empty()) {
      saw_knn = true;
      Answer outside = a;
      outside.results[0].stop = outsider;  // A stop outside T.
      expect_caught(r, outside);
      Answer longer = a;
      while (longer.results.size() <= checker.k()) {
        longer.results.push_back(longer.results.back());
      }
      expect_caught(r, longer);  // k + 1 or more entries.
      Answer late = a;
      late.results.back().time =
          late.results.back().time + Duration::FromSeconds(1);
      expect_caught(r, late);  // Off-by-one time inside a kNN.
    }
  }
  std::fprintf(stderr,
               "[perfbench] checker self-check: %d of %d perturbed answers "
               "reported as failed\n",
               caught, planted);
  return planted == 4 && caught == planted;
}

}  // namespace perfbench
