// Reproduces Table 2: PAF forms vs degree vs multiplication depth, plus the
// Appendix-C / Fig. 10 depth schedule with --schedule.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "approx/presets.h"
#include "bench_common.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace sp;
  using namespace sp::approx;

  std::printf("=== Table 2: PAF forms, degrees and multiplication depth ===\n");
  Table table({"Form", "Paper degree label", "Degree sum", "Algebraic degree",
               "Mult depth (ours)", "Mult depth (paper)", "Max sign err @0.15"});
  for (PafForm form : all_forms()) {
    const CompositePaf paf = make_paf(form);
    table.add_row({form_name(form), std::to_string(paper_degree_label(form)),
                   std::to_string(paf.degree_sum()), std::to_string(paf.degree_product()),
                   std::to_string(paf.mult_depth()), std::to_string(paper_mult_depth(form)),
                   Table::num(paf.sign_error_max(0.15), 4)});
  }
  table.print(std::cout);
  table.write_csv(bench::out_dir() + "/table2.csv");

  bool ok = true;
  for (PafForm form : all_forms()) {
    if (make_paf(form).mult_depth() != paper_mult_depth(form)) ok = false;
  }
  std::printf("\nDepth row matches the paper: %s\n", ok ? "YES (10/8/6/6/6/5)" : "NO");

  if (argc > 1 && std::strcmp(argv[1], "--schedule") == 0) {
    std::printf("\n=== Appendix C / Fig. 10: depth schedule of f1.g2 ===\n");
    for (const auto& line : depth_schedule(make_paf(PafForm::F1_G2)))
      std::printf("  %s\n", line.c_str());
  }
  return ok ? 0 : 1;
}
