#include "experiments/experiments.h"

namespace bgpatoms::bench {

void register_all_experiments(Registry& registry) {
  register_table1(registry);
  register_table2(registry);
  register_table3(registry);
  register_table4(registry);
  register_table5(registry);
  register_table6(registry);
  register_table7(registry);
  register_fig01(registry);
  register_fig02(registry);
  register_fig03(registry);
  register_fig04(registry);
  register_fig05(registry);
  register_fig06(registry);
  register_fig07(registry);
  register_fig08(registry);
  register_fig09(registry);
  register_fig10(registry);
  register_fig11(registry);
  register_fig12(registry);
  register_fig13(registry);
  register_fig14(registry);
  register_fig15(registry);
  register_repro2002(registry);
  register_scenario_hijack(registry);
  register_table_rov_trend(registry);
  register_table_vp_value(registry);
  register_ablation_sanitizer(registry);
  register_ablation_vps(registry);
  register_extra_quality(registry);
}

}  // namespace bgpatoms::bench
