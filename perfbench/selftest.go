package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runSelftest runs every workload at its smallest size, untraced and
// traced, each in a child process of its own, and checks that every run
// is correct and reports exactly the metrics the benchmark definition at
// benchPath names.
func runSelftest(out io.Writer, benchPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	decl, err := declaredMetrics(benchPath)
	if err != nil {
		return err
	}
	if err := checkDefinitions(benchPath, decl); err != nil {
		return err
	}
	for _, w := range workloadOrder {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w, "--seed", "2016", "--seconds", "1", "--trace", traced, "--small")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s trace=%s: %w", w, traced, err)
			}
			if err := checkResultLine(stdout.String(), decl[traced]); err != nil {
				return fmt.Errorf("%s trace=%s: %w\n%s", w, traced, err, stdout.String())
			}
			fmt.Fprintf(out, "selftest: %s trace=%s ok\n", w, traced)
		}
	}
	return nil
}

// declaredMetrics reads the end-to-end ("0") and per-layer ("1") metric
// names and units from BENCHMARK.json, and checks them against the
// metrics this program reports.
func declaredMetrics(path string) (map[string]map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	decl := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range doc.EndToEnd {
		decl["0"][m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		decl["1"][m.Name] = m.Unit
	}
	for mode, specs := range map[string][]metricSpec{"0": e2eMetrics, "1": layerMetricSpecs()} {
		if len(specs) != len(decl[mode]) {
			return nil, fmt.Errorf("%s declares %d metrics for trace=%s, the benchmark reports %d", path, len(decl[mode]), mode, len(specs))
		}
		for _, s := range specs {
			if decl[mode][s.name] != s.unit {
				return nil, fmt.Errorf("%s: metric %s declared with unit %q, reported with %q", path, s.name, decl[mode][s.name], s.unit)
			}
		}
	}
	return decl, nil
}

// checkDefinitions checks definitions.json, which sits in this program's
// directory next to the repository root's BENCHMARK.json, against it: it
// defines every workload this program runs and describes exactly the
// declared end-to-end metrics, and its layer-to-metric map names only
// declared metrics and known workloads.
func checkDefinitions(benchPath string, decl map[string]map[string]string) error {
	path := filepath.Join(filepath.Dir(benchPath), "perfbench", "definitions.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var defs struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  struct {
			Moves map[string][][2]string `json:"moves"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &defs); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range workloadOrder {
		if _, ok := defs.Workloads[w]; !ok {
			return fmt.Errorf("%s does not define workload %s", path, w)
		}
	}
	if len(defs.Workloads) != len(workloadOrder) {
		return fmt.Errorf("%s defines %d workloads, the benchmark runs %d", path, len(defs.Workloads), len(workloadOrder))
	}
	for name := range decl["0"] {
		if defs.EndToEnd[name] == "" {
			return fmt.Errorf("%s does not describe end-to-end metric %s", path, name)
		}
	}
	if len(defs.EndToEnd) != len(decl["0"]) {
		return fmt.Errorf("%s describes %d end-to-end metrics, %s declares %d", path, len(defs.EndToEnd), benchPath, len(decl["0"]))
	}
	for layer, targets := range defs.PerLayer.Moves {
		if _, ok := decl["1"][layer]; !ok {
			return fmt.Errorf("%s: moves names undeclared per-layer metric %s", path, layer)
		}
		for _, t := range targets {
			_, e2e := decl["0"][t[0]]
			_, perLayer := decl["1"][t[0]]
			_, workload := defs.Workloads[t[1]]
			if !e2e && !perLayer || !workload && t[1] != "all" {
				return fmt.Errorf("%s: %s moves unknown metric %s or workload %s", path, layer, t[0], t[1])
			}
		}
	}
	return nil
}

// checkResultLine checks a run's last output line.
func checkResultLine(stdout string, want map[string]string) error {
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]outMetric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			return fmt.Errorf("metric %s missing or with unit %q, want %q", name, m.Unit, unit)
		}
	}
	return nil
}
