// Execution snapshots: a paused machine is captured into an immutable
// State — frames, continuation, and a copy-on-write fork of the address
// space — and any number of runs later resume from it, each on its own
// fork. A resumed run is bit-identical to a from-scratch run of the same
// configuration: the machine is deterministic, so replaying the prefix and
// restoring it are indistinguishable.
package vm

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// hook runs before a dispatch once the machine's event count reaches
// its wake point: a paused Exec wakes before every dispatch and stops
// there, a resumed run wakes only at the event its convergence check
// waits for. It returns true to stop the dispatch loop. A run without
// either never wakes.
type hook interface {
	at(m *machine) bool
}

// Exec is a stepwise execution handle: it advances a machine to chosen
// dynamic-event boundaries and captures snapshots there. Record mode is
// not supported (snapshots exist to avoid re-executing work; a recording
// run needs every event anyway), and injection happens at Resume.
type Exec struct {
	m     *machine
	pause pause
}

// pause stops the dispatch loop before the first dispatch that would
// retire an event past stopAt.
type pause struct {
	stopAt int64
	hit    bool
}

func (p *pause) at(m *machine) bool {
	if m.dyn+dispatchCost(m.stack[len(m.stack)-1]) > p.stopAt {
		p.hit = true
		return true
	}
	return false
}

// dispatchCost returns how many events the dispatch at fr.pc retires: a
// phi group retires all its members, a trap none, and any other
// instruction one.
func dispatchCost(fr *vframe) int64 {
	fc := fr.fc
	switch vop(fc.code[fr.pc] >> 56) {
	case vopPhiGroup:
		return int64(len(fc.phiTab[uint32(fc.code[fr.pc+1])].phis))
	case vopTrap:
		return 0
	}
	return 1
}

// NewExec prepares the program for stepwise execution under cfg. The
// entry frame is pushed; no instructions have executed yet (event 0).
func (p *Program) NewExec(cfg interp.Config) (*Exec, error) {
	if cfg.Record {
		return nil, fmt.Errorf("vm: Exec does not support Record mode")
	}
	if cfg.Injection != nil {
		return nil, fmt.Errorf("vm: Exec does not support injection; inject via Resume")
	}
	m, err := p.start(cfg)
	if err != nil {
		return nil, err
	}
	e := &Exec{m: m}
	m.hook, m.wake = &e.pause, 0
	return e, nil
}

// Advance executes until the next dispatch would retire an event past
// stopAt, pausing at an event <= stopAt. Every instruction is a dispatch
// of its own except a block-leading phi group, so the pause lands exactly
// on stopAt unless stopAt falls inside a phi group, where it stops before
// the group. It returns true while the program is still live; false once
// it terminated (return, exception, hang, or fatal error).
func (e *Exec) Advance(stopAt int64) bool {
	m := e.m
	e.pause = pause{stopAt: stopAt}
	for !e.pause.hit && m.live() {
		fr := m.stack[len(m.stack)-1]
		inner(m, fr, fr.fc, fr.fc.code, fr.regs, fr.defs, fr.pc)
	}
	return e.pause.hit
}

// Event returns the machine's current dynamic-event position.
func (e *Exec) Event() int64 { return e.m.dyn }

// Err returns the harness-level fatal error, if any.
func (e *Exec) Err() error { return e.m.fatal }

// DirtyPages returns the cumulative count of pages the execution has
// privately materialized or copy-on-write faulted; the delta between two
// captures is the page cost of the second snapshot.
func (e *Exec) DirtyPages() int64 { return e.m.as.DirtyPages() }

// Capture snapshots the paused machine. The returned State is immutable
// and safe for concurrent Resume calls; the capture costs O(frames +
// mapped-page pointers) — page data is shared copy-on-write.
func (e *Exec) Capture() *State {
	m := e.m
	return &State{
		prog:    m.prog,
		event:   m.dyn,
		frames:  copyFrames(m.stack),
		as:      m.as.Fork(),
		outputs: append([]trace.Output(nil), m.outputs...),
		globals: m.globals,
		cfg:     m.cfg,
	}
}

// State is a captured point of one execution of a Program: the call stack
// with register files and pcs, emitted outputs, and a frozen COW fork of
// the simulated address space (stack pointer, heap break, VMA-table
// version history included). States are immutable; Resume forks them.
type State struct {
	prog    *Program
	event   int64
	frames  []*vframe
	as      *mem.AddressSpace
	outputs []trace.Output
	globals map[*ir.Global]uint64
	cfg     interp.Config
}

// Event returns the dynamic-event index the state was captured at: the
// number of events retired before the pause.
func (st *State) Event() int64 { return st.event }

// ResumeOptions controls one resumed run.
type ResumeOptions struct {
	// Injection, when non-nil, corrupts one register definition; its
	// Event must be at or after the state's capture event (earlier events
	// already executed, uncorrupted, inside the snapshot).
	Injection *interp.Injection
	// Convergence, when non-nil, allows the run to fast-forward to the
	// golden result once its machine state is bit-identical to a golden
	// checkpoint.
	Convergence *Convergence
}

// Convergence lets a resumed faulty run stop early: after the injection
// applies, whenever execution reaches the event index of a golden
// checkpoint, the machine compares its state (frames, the registers live
// at each frame's pc, memory) against that checkpoint. Equality means the
// fault's effects are gone — a deterministic machine in a state with the
// same live values produces an identical future — so the run splices the
// golden tail (remaining outputs, exception, final event count) instead
// of executing it. COW page sharing makes the comparison cost
// proportional to the pages that diverged, not to total memory.
type Convergence struct {
	// Golden is the fault-free run of the same configuration.
	Golden *interp.Result
	// Next returns the first golden checkpoint with Event > after, or nil
	// when no further checkpoint exists.
	Next func(after int64) *State
}

// convState is the machine-side cursor over golden checkpoints.
type convState struct {
	golden  *interp.Result
	next    func(after int64) *State
	pending *State
}

// Resume continues execution from a captured state on a fresh COW fork
// of it, on the program it was captured from. The run inherits the
// capture-time configuration (layout, alignment, budget) and is
// bit-identical to a from-scratch run with the same injection: same
// outputs, exception, hang flag, and final event position.
func Resume(st *State, opts ResumeOptions) (*interp.Result, error) {
	if opts.Injection != nil && opts.Injection.Event < st.event {
		return nil, fmt.Errorf("vm: injection event %d precedes snapshot event %d",
			opts.Injection.Event, st.event)
	}
	cfg := st.cfg
	cfg.Injection = opts.Injection
	m := newMachine(st.prog, cfg, st.as.Fork(), st.globals)
	m.stack = copyFrames(st.frames)
	m.dyn, m.start = st.event, st.event
	m.outputs = append([]trace.Output(nil), st.outputs...)
	if c := opts.Convergence; c != nil && c.Golden != nil && c.Next != nil && !c.Golden.Hang {
		// A hung golden run has no final state to converge to: the faulty
		// run's larger budget would run past the golden horizon.
		st.prog.ensureLiveness()
		m.hook = &convState{golden: c.Golden, next: c.Next}
		if m.inj == nil || m.inj.Applied {
			m.wake = m.dyn
		}
		// Otherwise injectBits wakes the hook once the fault applies.
	}
	m.run()
	return m.finish()
}

// at is called between dispatches once the machine reaches the event it
// waits for: when the machine sits exactly on a golden checkpoint event
// and its state equals that checkpoint, it splices the golden tail and
// halts. Checkpoints are captured at dispatch boundaries too, so none
// falls where the run cannot look.
func (c *convState) at(m *machine) bool {
	if m.inj != nil && !m.inj.Applied {
		// Before the fault applies the run IS the golden prefix; comparing
		// now would trivially "converge" and skip the injection. Sleep
		// until injectBits wakes the hook.
		m.wake = math.MaxInt64
		return false
	}
	if c.pending == nil || c.pending.event < m.dyn {
		// No checkpoint yet, or a phi group's dispatch jumped over it:
		// fetch the first one at or after this event.
		if c.pending = c.next(m.dyn - 1); c.pending == nil {
			// No further checkpoints will ever exist.
			m.hook, m.wake = nil, math.MaxInt64
			return false
		}
	}
	if c.pending.event > m.dyn {
		m.wake = c.pending.event
		return false
	}
	st := c.pending
	c.pending = nil
	if !m.stateEqual(st) {
		m.wake = m.dyn + 1
		return false
	}
	m.outputs = append(m.outputs, c.golden.Outputs[len(st.outputs):]...)
	m.executed = m.dyn - m.start
	m.dyn = c.golden.DynInstrs
	m.exc = c.golden.Exception
	m.converged = true
	m.stack = m.stack[:0]
	return true
}

// stateEqual reports whether the live machine has the same future as a
// captured state: same call stack (functions, pcs, live registers and
// their dynamic defs, pending call sites) and same address space. Top
// frames compare first — they diverge soonest in a faulty run.
func (m *machine) stateEqual(st *State) bool {
	if len(m.stack) != len(st.frames) {
		return false
	}
	for i := len(m.stack) - 1; i >= 0; i-- {
		if !frameEqual(m.stack[i], st.frames[i]) {
			return false
		}
	}
	return m.as.Equal(st.as)
}

// frameEqual compares two frames' continuations and the locals and
// parameters live at their pc (live.go); a dead slot is written before it
// is read again, so it cannot change the future. A frame waiting on a call
// also leaves out the call's result slot, which popFrame writes before the
// frame resumes. The constant and global tail is fixed per program and
// layout. The program's liveness tables must be built.
func frameEqual(a, b *vframe) bool {
	if a.fc != b.fc || a.pc != b.pc || a.prev != b.prev ||
		a.base != b.base || a.savedSP != b.savedSP ||
		a.callInstr != b.callInstr || a.callIdx != b.callIdx {
		return false
	}
	ret := -1
	if in := a.callInstr; in != nil && !in.Ty.IsVoid() {
		ret = in.LocalID
	}
	for _, s := range a.fc.live.at(a.pc) {
		if int(s) != ret && (a.regs[s] != b.regs[s] || a.defs[s] != b.defs[s]) {
			return false
		}
	}
	return true
}

// copyFrames deep-copies a frame stack in four allocations whatever its
// depth: the stack, the frames, and one backing array each for their
// registers and defs.
func copyFrames(stack []*vframe) []*vframe {
	n := 0
	for _, fr := range stack {
		n += len(fr.regs)
	}
	frames := make([]vframe, len(stack))
	regs := make([]uint64, 0, n)
	defs := make([]int64, 0, n)
	out := make([]*vframe, len(stack))
	for i, fr := range stack {
		cp := &frames[i]
		*cp = *fr
		lo := len(regs)
		regs = append(regs, fr.regs...)
		defs = append(defs, fr.defs...)
		cp.regs = regs[lo:len(regs):len(regs)]
		cp.defs = defs[lo:len(defs):len(defs)]
		out[i] = cp
	}
	return out
}
