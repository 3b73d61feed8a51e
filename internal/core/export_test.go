package core

// ControlPlaneCfg exposes controlPlaneCfg to the external test package,
// whose tests render through packages that import core.
var ControlPlaneCfg = controlPlaneCfg
