// Package backbone models the paper's other context (§3.4): ISP networks,
// where "the benefits from power proportionality are even more direct
// since it is all network and no compute", and underutilization is
// unavoidable because customers expect capacity they do not use 24/7.
//
// A backbone is a router graph with per-link diurnal load profiles. The
// package provides a link-sleeping optimizer that powers optical links
// down at night subject to two safety constraints: the graph must stay
// connected (no bridge may sleep), and the slept link's traffic — rerouted
// along the shortest remaining path — must not push any surviving link
// over a utilization cap. This is the §3.4 "different kind of
// underutilization": links are underutilized rather than unused.
package backbone

import (
	"fmt"
	"sort"

	"netpowerprop/internal/traffic"
	"netpowerprop/internal/units"
)

// Link is one bidirectional backbone adjacency.
type Link struct {
	ID   int
	A, B int
	// Capacity per direction.
	Capacity units.Bandwidth
	// Load is the link's offered utilization over time (of Capacity).
	Load traffic.Profile
	// Power is the link's interface power (both ends' transceivers and
	// line cards) when up; a slept link draws nothing.
	Power units.Power
}

// Network is a backbone graph. Build with New and AddLink.
type Network struct {
	routers int
	links   []Link
	adj     map[int][]int // router -> link IDs
	// RouterPower is each router's chassis draw (base power that never
	// sleeps; §3.4 routers stay up even when links sleep).
	RouterPower units.Power
}

// New creates a backbone with n routers and the given chassis power.
func New(n int, routerPower units.Power) (*Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("backbone: need at least 2 routers, have %d", n)
	}
	if routerPower < 0 {
		return nil, fmt.Errorf("backbone: negative router power %v", routerPower)
	}
	return &Network{routers: n, adj: make(map[int][]int), RouterPower: routerPower}, nil
}

// Links returns the links (do not mutate).
func (n *Network) Links() []Link { return n.links }

// AddLink connects two routers.
func (n *Network) AddLink(a, b int, capacity units.Bandwidth, power units.Power, load traffic.Profile) (int, error) {
	if a < 0 || a >= n.routers || b < 0 || b >= n.routers {
		return 0, fmt.Errorf("backbone: endpoint outside [0,%d)", n.routers)
	}
	if a == b {
		return 0, fmt.Errorf("backbone: self-link at router %d", a)
	}
	if capacity <= 0 {
		return 0, fmt.Errorf("backbone: non-positive capacity %v", capacity)
	}
	if power < 0 {
		return 0, fmt.Errorf("backbone: negative link power %v", power)
	}
	if load == nil {
		return 0, fmt.Errorf("backbone: nil load profile")
	}
	id := len(n.links)
	n.links = append(n.links, Link{ID: id, A: a, B: b, Capacity: capacity, Power: power, Load: load})
	n.adj[a] = append(n.adj[a], id)
	n.adj[b] = append(n.adj[b], id)
	return id, nil
}

// Ring builds the classic resilient backbone shape: n routers in a cycle,
// every link with the same capacity/power and a diurnal profile whose
// phase shifts per link (time zones along the ring).
func Ring(n int, capacity units.Bandwidth, linkPower, routerPower units.Power, trough, peak float64) (*Network, error) {
	net, err := New(n, routerPower)
	if err != nil {
		return nil, err
	}
	const day = units.Seconds(86400)
	for i := 0; i < n; i++ {
		base, err := traffic.Diurnal(trough, peak, day)
		if err != nil {
			return nil, err
		}
		shift := units.Seconds(float64(day) * float64(i) / float64(n))
		prof := func(s units.Seconds) float64 { return base(s + shift) }
		if _, err := net.AddLink(i, (i+1)%n, capacity, linkPower, prof); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// connected reports whether the routers form one component using only the
// links marked up.
func (n *Network) connected(up map[int]bool) bool {
	if n.routers == 0 {
		return true
	}
	seen := make([]bool, n.routers)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range n.adj[r] {
			if !up[lid] {
				continue
			}
			l := n.links[lid]
			peer := l.A
			if peer == r {
				peer = l.B
			}
			if !seen[peer] {
				seen[peer] = true
				count++
				stack = append(stack, peer)
			}
		}
	}
	return count == n.routers
}

// shortestAltPath finds the shortest path (in hops) between a link's
// endpoints using only up links excluding the link itself. Returns the
// link IDs or nil when none exists.
func (n *Network) shortestAltPath(skip int, up map[int]bool) []int {
	src, dst := n.links[skip].A, n.links[skip].B
	type node struct {
		router int
		path   []int
	}
	visited := make([]bool, n.routers)
	visited[src] = true
	queue := []node{{router: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, lid := range n.adj[cur.router] {
			if lid == skip || !up[lid] {
				continue
			}
			l := n.links[lid]
			peer := l.A
			if peer == cur.router {
				peer = l.B
			}
			if visited[peer] {
				continue
			}
			path := append(append([]int{}, cur.path...), lid)
			if peer == dst {
				return path
			}
			visited[peer] = true
			queue = append(queue, node{router: peer, path: path})
		}
	}
	return nil
}

// SleepPlan is the sleeping decision at one instant.
type SleepPlan struct {
	// Asleep lists slept link IDs.
	Asleep []int
	// Utilization maps every up link to its post-reroute utilization.
	Utilization map[int]float64
	// Power is the instantaneous network power under the plan.
	Power units.Power
}

// PlanAt greedily sleeps the lowest-utilized links at time t, subject to:
// utilization below sleepBelow, connectivity preserved, and the rerouted
// traffic keeping every surviving link at or below maxUtil.
func (n *Network) PlanAt(t units.Seconds, sleepBelow, maxUtil float64) (SleepPlan, error) {
	if len(n.links) == 0 {
		return SleepPlan{}, fmt.Errorf("backbone: no links")
	}
	if sleepBelow < 0 || sleepBelow > 1 || maxUtil <= 0 || maxUtil > 1 {
		return SleepPlan{}, fmt.Errorf("backbone: thresholds sleepBelow=%v maxUtil=%v invalid", sleepBelow, maxUtil)
	}
	up := make(map[int]bool, len(n.links))
	util := make(map[int]float64, len(n.links))
	for _, l := range n.links {
		up[l.ID] = true
		u := l.Load(t)
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		util[l.ID] = u
	}
	// Candidates ascending by utilization: sleep the emptiest first.
	candidates := make([]int, 0, len(n.links))
	for id, u := range util {
		if u < sleepBelow {
			candidates = append(candidates, id)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if util[candidates[i]] != util[candidates[j]] {
			return util[candidates[i]] < util[candidates[j]]
		}
		return candidates[i] < candidates[j]
	})

	var asleep []int
	for _, id := range candidates {
		up[id] = false
		if !n.connected(up) {
			up[id] = true
			continue
		}
		// Reroute this link's traffic along the shortest alternative.
		path := n.shortestAltPath(id, up)
		if path == nil {
			up[id] = true
			continue
		}
		moved := util[id] * float64(n.links[id].Capacity)
		ok := true
		for _, lid := range path {
			if util[lid]+moved/float64(n.links[lid].Capacity) > maxUtil {
				ok = false
				break
			}
		}
		if !ok {
			up[id] = true
			continue
		}
		for _, lid := range path {
			util[lid] += moved / float64(n.links[lid].Capacity)
		}
		util[id] = 0
		asleep = append(asleep, id)
	}

	plan := SleepPlan{Asleep: asleep, Utilization: make(map[int]float64)}
	var p float64
	p += float64(n.RouterPower) * float64(n.routers)
	for _, l := range n.links {
		if up[l.ID] {
			p += float64(l.Power)
			plan.Utilization[l.ID] = util[l.ID]
		}
	}
	plan.Power = units.Power(p)
	return plan, nil
}

// DayResult summarizes a simulated day.
type DayResult struct {
	// Energy under link sleeping; Baseline with every link up.
	Energy   units.Energy
	Baseline units.Energy
	Savings  float64
	// MeanAsleep is the time-averaged slept-link count.
	MeanAsleep float64
	// MaxUtilization is the highest post-reroute utilization seen.
	MaxUtilization float64
}

// SimulateDay evaluates the sleeping policy over one day at the given
// sampling step.
func (n *Network) SimulateDay(step units.Seconds, sleepBelow, maxUtil float64) (DayResult, error) {
	var res DayResult
	if step <= 0 || step > 86400 {
		return res, fmt.Errorf("backbone: step %v outside (0, 86400]", step)
	}
	var basePower float64
	basePower += float64(n.RouterPower) * float64(n.routers)
	for _, l := range n.links {
		basePower += float64(l.Power)
	}
	samples := 0
	var asleepAcc float64
	for t := units.Seconds(0); t < 86400; t += step {
		plan, err := n.PlanAt(t, sleepBelow, maxUtil)
		if err != nil {
			return res, err
		}
		res.Energy += units.EnergyOver(plan.Power, step)
		res.Baseline += units.EnergyOver(units.Power(basePower), step)
		asleepAcc += float64(len(plan.Asleep))
		for _, u := range plan.Utilization {
			if u > res.MaxUtilization {
				res.MaxUtilization = u
			}
		}
		samples++
	}
	if samples > 0 {
		res.MeanAsleep = asleepAcc / float64(samples)
	}
	if res.Baseline > 0 {
		res.Savings = 1 - float64(res.Energy)/float64(res.Baseline)
	}
	return res, nil
}
