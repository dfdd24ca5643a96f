package engine

import (
	"netpowerprop/internal/core"
	"netpowerprop/internal/units"
)

// Quantity is a physical value carried both numerically (base SI units:
// bits per second, watts, joules) and as the human-readable label the
// CLIs print, so the server's JSON and the CLI tables are guaranteed to
// agree.
type Quantity struct {
	Value float64 `json:"value"`
	Label string  `json:"label"`
}

func bandwidthQ(b units.Bandwidth) Quantity { return Quantity{float64(b), b.String()} }
func powerQ(p units.Power) Quantity         { return Quantity{float64(p), p.String()} }
func energyQ(e units.Energy) Quantity       { return Quantity{float64(e), e.String()} }

// Result is the engine's response. Exactly one payload field is set,
// matching the request's op. Results are cached and shared between
// concurrent requests; treat them as immutable.
type Result struct {
	Op Op `json:"op"`
	// Request echoes the normalized request the result answers.
	Request Request `json:"request"`

	Cluster    *ClusterSummary  `json:"cluster,omitempty"`
	Grid       *Grid            `json:"grid,omitempty"`
	Curves     []Curve          `json:"curves,omitempty"`
	Crossovers []CrossoverPoint `json:"crossovers,omitempty"`
	Sweep      []SweepPoint     `json:"sweep,omitempty"`
	Cost       *CostResult      `json:"cost,omitempty"`
	Table      *Table           `json:"table,omitempty"`

	// RowErrors marks rows that exhausted their retries when the result
	// was produced by the jobs subsystem (graceful degradation: the
	// successful rows are present, the failed ones are typed markers).
	// Always nil on the synchronous engine path.
	RowErrors []RowError `json:"row_errors,omitempty"`
}

// ClusterSummary reports one sized scenario: the fat-tree design and the
// power/efficiency metrics of §2–§3.
type ClusterSummary struct {
	GPUs                int      `json:"gpus"`
	Bandwidth           Quantity `json:"bandwidth"`
	Interp              string   `json:"interp"`
	Stages              float64  `json:"stages"`
	Switches            float64  `json:"switches"`
	Transceivers        float64  `json:"transceivers"`
	NetworkMaxPower     Quantity `json:"network_max_power"`
	ComputeMaxPower     Quantity `json:"compute_max_power"`
	AveragePower        Quantity `json:"average_power"`
	PeakPower           Quantity `json:"peak_power"`
	NetworkAveragePower Quantity `json:"network_average_power"`
	NetworkShare        float64  `json:"network_share"`
	NetworkEfficiency   float64  `json:"network_efficiency"`
	ComputeEfficiency   float64  `json:"compute_efficiency"`
	IterationTime       float64  `json:"iteration_time_s"`
	ScheduleTime        float64  `json:"schedule_time_s"`
	EnergyPerIteration  Quantity `json:"energy_per_iteration"`
}

func summarize(cl *core.Cluster) *ClusterSummary {
	cfg := cl.Config()
	d := cl.Design()
	return &ClusterSummary{
		GPUs:                cfg.GPUs,
		Bandwidth:           bandwidthQ(cfg.Bandwidth),
		Interp:              cfg.Interp.String(),
		Stages:              d.Stages,
		Switches:            d.Switches,
		Transceivers:        d.Transceivers(),
		NetworkMaxPower:     powerQ(cl.NetworkMaxPower()),
		ComputeMaxPower:     powerQ(cl.ComputeMaxPower()),
		AveragePower:        powerQ(cl.AveragePower()),
		PeakPower:           powerQ(cl.PeakPower()),
		NetworkAveragePower: powerQ(cl.NetworkAveragePower()),
		NetworkShare:        cl.NetworkShare(),
		NetworkEfficiency:   cl.NetworkEfficiency(),
		ComputeEfficiency:   cl.ComputeEfficiency(),
		IterationTime:       float64(cl.Iteration().Total()),
		ScheduleTime:        float64(cl.Schedule().Total()),
		EnergyPerIteration:  energyQ(cl.EnergyPerIteration()),
	}
}

// Grid is Table 3 in JSON form: rows by bandwidth, columns by
// proportionality, savings relative to the same-bandwidth reference.
type Grid struct {
	RefProportionality float64      `json:"ref_proportionality"`
	Interp             string       `json:"interp"`
	Bandwidths         []Quantity   `json:"bandwidths"`
	Proportionalities  []float64    `json:"proportionalities"`
	Cells              [][]GridCell `json:"cells"`
}

// GridCell is one savings cell.
type GridCell struct {
	Savings      float64  `json:"savings"`
	AveragePower Quantity `json:"average_power"`
	SavedPower   Quantity `json:"saved_power"`
}

// Curve is one Fig. 3/4 line: a bandwidth swept across proportionality.
type Curve struct {
	Bandwidth Quantity     `json:"bandwidth"`
	Points    []CurvePoint `json:"points"`
}

// CurvePoint is one optimized point of a speedup curve.
type CurvePoint struct {
	Proportionality float64 `json:"proportionality"`
	GPUs            int     `json:"gpus"`
	IterationTime   float64 `json:"iteration_time_s"`
	Speedup         float64 `json:"speedup"`
}

func curvesOf(cs []core.SpeedupCurve) []Curve {
	out := make([]Curve, 0, len(cs))
	for _, c := range cs {
		cv := Curve{Bandwidth: bandwidthQ(c.Bandwidth)}
		for _, p := range c.Points {
			cv.Points = append(cv.Points, CurvePoint{
				Proportionality: p.Proportionality,
				GPUs:            p.GPUs,
				IterationTime:   float64(p.IterationTime),
				Speedup:         p.Speedup,
			})
		}
		out = append(out, cv)
	}
	return out
}

// CrossoverPoint names the winning bandwidth at one proportionality.
type CrossoverPoint struct {
	Proportionality float64  `json:"proportionality"`
	Best            Quantity `json:"best"`
	Speedup         float64  `json:"speedup"`
}

func crossoversOf(cs []core.Crossover) []CrossoverPoint {
	out := make([]CrossoverPoint, 0, len(cs))
	for _, c := range cs {
		out = append(out, CrossoverPoint{
			Proportionality: c.Proportionality,
			Best:            bandwidthQ(c.Best),
			Speedup:         c.Speedup,
		})
	}
	return out
}

// SweepPoint is one row of a proportionality sweep.
type SweepPoint struct {
	Proportionality   float64  `json:"proportionality"`
	AveragePower      Quantity `json:"average_power"`
	PeakPower         Quantity `json:"peak_power"`
	NetworkShare      float64  `json:"network_share"`
	NetworkEfficiency float64  `json:"network_efficiency"`
	// Savings is relative to the sweep's proportionality-0 row.
	Savings float64 `json:"savings"`
}

// CostResult is the §3.2 annualized cost analysis.
type CostResult struct {
	Proportionality    float64  `json:"proportionality"`
	RefProportionality float64  `json:"ref_proportionality"`
	SavedPower         Quantity `json:"saved_power"`
	ElectricityPerYear float64  `json:"electricity_per_year"`
	CoolingPerYear     float64  `json:"cooling_per_year"`
	TotalPerYear       float64  `json:"total_per_year"`
}

// Table is a rendered mechanism-scenario result: the same title, headers,
// rows, and trailing notes the netsim CLI prints, in machine-readable
// form.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }
