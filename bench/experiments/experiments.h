// One register_* function per experiment definition, plus the roll-up
// that populates a Registry with all of them (in paper order). The
// bga_bench CLI and the perfbench repro workload go through
// register_all_experiments(); a test can register any subset.
#pragma once

#include "report/experiment.h"

namespace bgpatoms::bench {

using report::Registry;

void register_table1(Registry& registry);
void register_table2(Registry& registry);
void register_table3(Registry& registry);
void register_table4(Registry& registry);
void register_table5(Registry& registry);
void register_table6(Registry& registry);
void register_table7(Registry& registry);
void register_fig01(Registry& registry);
void register_fig02(Registry& registry);
void register_fig03(Registry& registry);
void register_fig04(Registry& registry);
void register_fig05(Registry& registry);
void register_fig06(Registry& registry);
void register_fig07(Registry& registry);
void register_fig08(Registry& registry);
void register_fig09(Registry& registry);
void register_fig10(Registry& registry);
void register_fig11(Registry& registry);
void register_fig12(Registry& registry);
void register_fig13(Registry& registry);
void register_fig14(Registry& registry);
void register_fig15(Registry& registry);
void register_repro2002(Registry& registry);
void register_scenario_hijack(Registry& registry);
void register_table_rov_trend(Registry& registry);
void register_table_vp_value(Registry& registry);
void register_ablation_sanitizer(Registry& registry);
void register_ablation_vps(Registry& registry);
void register_extra_quality(Registry& registry);

/// Registers every experiment above, in paper order (tables, figures,
/// reproduction, scenarios, VP value, ablations, extras).
void register_all_experiments(Registry& registry);

}  // namespace bgpatoms::bench
