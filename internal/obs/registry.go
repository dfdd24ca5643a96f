package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them as Prometheus text
// exposition (version 0.0.4): one # HELP and # TYPE line per family,
// then one sample line per child, histograms expanded into cumulative
// _bucket/_sum/_count series. Registration is explicit and panics on
// misuse (bad names, type conflicts, duplicate children) — metric layout
// is program structure, not runtime input.
//
// A nil *Registry is valid: its Counter and Histogram return working
// handles that nothing renders, its CounterFunc and GaugeFunc do nothing,
// and it renders empty, so a subsystem built without a registry counts
// the same way as one built with it.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: help, type, and its labeled children.
type family struct {
	name, help, typ string
	buckets         []float64 // histogram families only

	mu       sync.Mutex
	order    []string // child render order (insertion)
	children map[string]*child
}

// child is one (family, label-set) series.
type child struct {
	labels  string // rendered `{k="v",...}` or ""
	counter *Counter
	fn      func() float64 // counterfunc / gaugefunc
	hist    *Histogram
}

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value is the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter registers (or extends) a counter family and returns the child
// for the given label pairs ("key", "value", ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{}
	r.addChild(name, help, "counter", nil, labels, &child{counter: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at render
// time, for totals another structure already keeps (histogram sums,
// cache evictions, gossip rounds).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.addChild(name, help, "counter", nil, labels, &child{fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at render time
// (queue depths, cache population, in-flight counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.addChild(name, help, "gauge", nil, labels, &child{fn: fn})
}

// Histogram registers (or extends) a histogram family and returns the
// child for the given label pairs. Every child of one family shares the
// same bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	h := NewHistogram(bounds)
	r.addChild(name, help, "histogram", bounds, labels, &child{hist: h})
	return h
}

// addChild validates and registers one series under its family. On a
// nil registry it registers nothing.
func (r *Registry) addChild(name, help, typ string, buckets []float64, labels []string, ch *child) {
	if r == nil {
		return
	}
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ch.labels = renderLabels(labels)
	r.mu.Lock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets,
			children: make(map[string]*child)}
		r.fams[name] = f
	}
	r.mu.Unlock()
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.children[ch.labels]; dup {
		panic(fmt.Sprintf("obs: duplicate series %s%s", name, ch.labels))
	}
	f.children[ch.labels] = ch
	f.order = append(f.order, ch.labels)
}

// Render writes the whole registry in exposition format, families sorted
// by name, children in registration order.
func (r *Registry) Render(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// render emits one family: HELP, TYPE, then every child's samples.
func (f *family) render(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ)
	b.WriteByte('\n')
	f.mu.Lock()
	children := make([]*child, 0, len(f.order))
	for _, key := range f.order {
		children = append(children, f.children[key])
	}
	f.mu.Unlock()
	for _, ch := range children {
		switch {
		case ch.counter != nil:
			sample(b, f.name, "", ch.labels, strconv.FormatUint(ch.counter.Value(), 10))
		case ch.fn != nil:
			sample(b, f.name, "", ch.labels, formatFloat(ch.fn()))
		case ch.hist != nil:
			cum, count, sum := ch.hist.snapshot()
			bounds := ch.hist.bounds
			for i, c := range cum {
				bound := "+Inf"
				if i < len(bounds) {
					bound = formatBound(bounds[i])
				}
				le := mergeLabels(ch.labels, `le="`+bound+`"`)
				sample(b, f.name, "_bucket", le, strconv.FormatUint(c, 10))
			}
			sample(b, f.name, "_sum", ch.labels, formatFloat(sum))
			sample(b, f.name, "_count", ch.labels, strconv.FormatUint(count, 10))
		}
	}
}

// sample writes one exposition sample line.
func sample(b *strings.Builder, name, suffix, labels, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// mergeLabels splices an extra rendered pair into an existing label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// renderLabels validates and renders alternating key/value pairs into
// the canonical `{k="v",...}` form ("" for no labels).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if !validLabelName(kv[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", kv[i]))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a value the way Prometheus text format expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslashes, quotes, and newlines.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validMetricName: [a-zA-Z_:][a-zA-Z0-9_:]*
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName: [a-zA-Z_][a-zA-Z0-9_]* and not a reserved __ name.
func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
