// bench_figure2 - Regenerates the paper's Figure 2 ("Illustration of The
// Key Problem"): matching a 0/1 behavior matrix against probabilistic
// fault signatures is ambiguous - focusing on the failing cells favours
// one fault, focusing on the passing cells favours another.  The paper's
// exact numbers are used; the four diagnosis error functions then resolve
// the dilemma, each its own way.
//
//            vec1  vec2          fault #1        fault #2
//   PO1       1     0          0.8   0.5        0.6   0.2
//   PO2       0     1          0.4   0.6        0.3   0.5
#include <cstdio>

#include "diagnosis/error_fn.h"
#include "obs/obs.h"
#include "runtime/parallel_for.h"

using sddd::diagnosis::Method;
using sddd::diagnosis::ScoreAccumulator;
using sddd::diagnosis::method_name;
using sddd::diagnosis::phi;
using sddd::diagnosis::ranks_better;

int main(int argc, char** argv) {
  sddd::obs::configure_observability_from_args(&argc, argv);
  sddd::runtime::configure_threads_from_args(&argc, argv);
  std::printf("== Figure 2 reproduction: whose signature matches B? ==\n\n");

  // Observed behavior: PO1 fails vec1; PO2 fails vec2.
  const std::vector<bool> b1 = {true, false};   // column of vec1
  const std::vector<bool> b2 = {false, true};   // column of vec2
  // Signature probability columns per fault (probability of failing).
  const std::vector<double> f1v1 = {0.8, 0.4};
  const std::vector<double> f1v2 = {0.5, 0.6};
  const std::vector<double> f2v1 = {0.6, 0.3};
  const std::vector<double> f2v2 = {0.2, 0.5};

  std::printf("behavior matrix B:        fault #1 probs:   fault #2 probs:\n");
  std::printf("  PO1:  1   0               0.8   0.5         0.6   0.2\n");
  std::printf("  PO2:  0   1               0.4   0.6         0.3   0.5\n\n");

  // The naive views the paper describes.
  const double ones_f1 = 0.8 * 0.6;  // product over the '1' cells
  const double ones_f2 = 0.6 * 0.5;
  const double zeros_f1 = (1 - 0.4) * (1 - 0.5);  // product over '0' cells
  const double zeros_f2 = (1 - 0.3) * (1 - 0.2);
  std::printf("focus on the '1' cells : fault#1 %.3f vs fault#2 %.3f -> %s\n",
              ones_f1, ones_f2, ones_f1 > ones_f2 ? "fault #1" : "fault #2");
  std::printf("focus on the '0' cells : fault#1 %.3f vs fault#2 %.3f -> %s\n",
              zeros_f1, zeros_f2, zeros_f1 > zeros_f2 ? "fault #1" : "fault #2");
  std::printf("=> the two views disagree: the diagnosis error function must "
              "be chosen deliberately.\n\n");

  // Per-pattern consistency (Algorithm E.1 steps 5-6).
  const double phi_f1[2] = {phi(f1v1, b1), phi(f1v2, b2)};
  const double phi_f2[2] = {phi(f2v1, b1), phi(f2v2, b2)};
  std::printf("phi per pattern:  fault#1 = {%.3f, %.3f}   fault#2 = {%.3f, %.3f}\n\n",
              phi_f1[0], phi_f1[1], phi_f2[0], phi_f2[1]);

  std::printf("%-12s %10s %10s   winner\n", "method", "fault #1", "fault #2");
  ScoreAccumulator a1;
  ScoreAccumulator a2;
  for (int j = 0; j < 2; ++j) {
    a1.add_phi(phi_f1[j]);
    a2.add_phi(phi_f2[j]);
  }
  for (const Method m :
       {Method::kSimI, Method::kSimII, Method::kSimIII, Method::kRev}) {
    const double s1 = a1.finish(m, 2);
    const double s2 = a2.finish(m, 2);
    const char* winner = ranks_better(m, a1.ranking_key(m, 2),
                                      a2.ranking_key(m, 2))
                             ? "fault #1"
                             : "fault #2";
    std::printf("%-12s %10.4f %10.4f   %s\n",
                std::string(method_name(m)).c_str(), s1, s2, winner);
  }
  std::printf(
      "\n(The reported values are the probability-domain scores; Alg_rev is\n"
      "an error to MINIMIZE, the others are probabilities to MAXIMIZE.)\n");
  return 0;
}
