// Command expcheck fetches a Prometheus text-exposition endpoint and
// validates it — HELP/TYPE coverage, histogram series shape, label
// syntax — using the same strict parser the unit tests run. CI uses it
// to smoke-test a live server's /metrics without depending on curl or
// promtool being installed.
//
// Usage:
//
//	expcheck [-timeout 10s] [-probe URL]... [-require NAME]... URL
//
// Each -probe URL is fetched first (retrying until it answers 200) —
// both a readiness gate and a way to drive traffic so request-path
// series exist before the exposition is scraped. Each -require NAME
// must be announced by a "# TYPE NAME <type>" line: a family whose name
// merely starts with NAME does not count.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"netpowerprop/internal/obs"
)

// repeated collects a repeatable string flag.
type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "expcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("expcheck", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	timeout := fs.Duration("timeout", 10*time.Second, "total time to wait for the endpoint to come up")
	var probes, require repeated
	fs.Var(&probes, "probe", "URL to fetch (retrying) before scraping; repeatable")
	fs.Var(&require, "require", "metric family that must be present; repeatable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: expcheck [-timeout d] [-probe url]... [-require name]... <metrics-url>")
	}
	url := fs.Arg(0)

	deadline := time.Now().Add(*timeout)
	for _, p := range probes {
		if _, err := fetch(p, deadline); err != nil {
			return fmt.Errorf("probe %s: %w", p, err)
		}
	}
	body, err := fetch(url, deadline)
	if err != nil {
		return err
	}
	if err := obs.ValidateExposition(body); err != nil {
		return fmt.Errorf("%s: invalid exposition: %w", url, err)
	}
	families := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			families[name] = true
		}
	}
	for _, name := range require {
		if !families[name] {
			return fmt.Errorf("%s: required metric family %q not found", url, name)
		}
	}
	fmt.Fprintf(w, "expcheck OK: %s is valid exposition (%d families, %d required present)\n",
		url, len(families), len(require))
	return nil
}

// fetch GETs the URL, retrying until it answers 200 or the deadline
// passes — the server under test may still be binding its listener.
func fetch(url string, deadline time.Time) ([]byte, error) {
	var lastErr error
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body, nil
			}
			lastErr = fmt.Errorf("status %d", resp.StatusCode)
			if rerr != nil {
				lastErr = rerr
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("gave up after deadline: %w", lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
