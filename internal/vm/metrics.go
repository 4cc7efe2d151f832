package vm

import (
	"repro/internal/cache"
	"repro/internal/obs"
)

// noteCompile publishes one module compilation's tallies.
func noteCompile(p *Program) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("epvf_vm_compiles_total").Inc()
	r.Counter("epvf_vm_compile_nanos_total").Add(p.CompileNanos)
	r.Counter("epvf_vm_code_bytes_total").Add(p.CodeBytes)
}

// noteRun publishes one run's tallies, the VM counterpart of the
// walker's epvf_interp_* flush.
func noteRun(m *machine) {
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("epvf_vm_runs_total").Inc()
	r.Counter("epvf_vm_instructions_total").Add(m.executed)
	r.Counter("epvf_vm_loads_total").Add(m.loads)
	r.Counter("epvf_vm_stores_total").Add(m.stores)
	if m.exc != nil {
		r.Counter("epvf_vm_exceptions_total", "kind", m.exc.Kind.MetricLabel()).Inc()
	}
	if m.hang {
		r.Counter("epvf_vm_hangs_total").Inc()
	}
}

// DefaultCache always returns nil: the VM keeps no compile cache. It
// stays because the benchmark (perfbench/main.go) still checks that no
// process-global cache is installed.
func DefaultCache() *cache.Store { return nil }
