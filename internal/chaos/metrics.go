package chaos

import "netpowerprop/internal/obs"

// Instrument registers p's counters on reg:
//
//	netpowerprop_chaos_armed                     — 1 when p is a plan, 0 when nil
//	netpowerprop_chaos_evaluations_total{site=}  — armed site evaluations
//	netpowerprop_chaos_injected_total{site=}     — faults actually injected
//
// A nil plan renders every family as zeros, so dashboards and the
// exposition validator see a stable metric set.
func (p *Plan) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("netpowerprop_chaos_armed",
		"1 while a chaos fault plan is armed, 0 otherwise.",
		func() float64 {
			if p != nil {
				return 1
			}
			return 0
		})
	for _, si := range Registry {
		s := &site{}
		if p != nil {
			s = p.sites[si.Name]
		}
		reg.CounterFunc("netpowerprop_chaos_evaluations_total",
			"Armed failpoint evaluations by site.",
			func() float64 { return float64(s.evals.Load()) },
			"site", si.Name)
		reg.CounterFunc("netpowerprop_chaos_injected_total",
			"Faults injected by site.",
			func() float64 { return float64(s.injections.Load()) },
			"site", si.Name)
	}
}
