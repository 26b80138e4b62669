#include "algo/common.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/error.hpp"

namespace eds::algo {

void LabelView::record_hello(Port i, const Message& m) {
  if (remote_port.size() != degree) {
    remote_port.assign(degree, 0);
    remote_degree.assign(degree, 0);
    dn_claimed.assign(degree, false);
  }
  EDS_ENSURE(m.tag == kTagHello, "LabelView: expected hello message");
  remote_port[i - 1] = static_cast<Port>(m.arg[0]);
  remote_degree[i - 1] = static_cast<Port>(m.arg[1]);
}

void LabelView::record_claim(Port i, const Message& m) {
  if (m.tag == kTagDnClaim) dn_claimed[i - 1] = true;
}

void LabelView::compute_dn() {
  // Label pair of the edge on port i is {i, remote_port[i-1]} (unordered).
  std::map<std::pair<Port, Port>, int> multiplicity;
  for (Port i = 1; i <= degree; ++i) {
    Port a = i;
    Port b = remote_port[i - 1];
    if (a > b) std::swap(a, b);
    ++multiplicity[{a, b}];
  }
  dn_port = 0;
  for (Port i = 1; i <= degree; ++i) {
    Port a = i;
    Port b = remote_port[i - 1];
    if (a > b) std::swap(a, b);
    if (multiplicity[{a, b}] == 1) {
      dn_port = i;
      break;
    }
  }
}

Port LabelView::mij_active_port(Port i, Port j) const {
  Port active = 0;
  // "v" side: my DN edge leaves through port i and arrives at remote port j.
  if (i <= degree && dn_port == i && remote_port[i - 1] == j) {
    active = i;
  }
  // "u" side: the edge on my port j comes from the claimant's port i.
  if (j <= degree && dn_claimed[j - 1] && remote_port[j - 1] == i) {
    EDS_ENSURE(active == 0 || active == j,
               "M(i,j) is not a matching at this node (Lemma 2 violated)");
    active = j;
  }
  return active;
}

std::vector<std::pair<Port, Port>> LabelView::mij_active_steps() const {
  std::vector<std::pair<Port, Port>> steps;
  if (dn_port != 0) steps.emplace_back(dn_port, remote_port[dn_port - 1]);
  for (Port j = 1; j <= degree; ++j) {
    if (dn_claimed[j - 1]) steps.emplace_back(remote_port[j - 1], j);
  }
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

}  // namespace eds::algo
