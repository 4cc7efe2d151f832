// Execution snapshots: one golden run captures its machine at chosen
// events into immutable States — frames, continuation, and a
// copy-on-write fork of the address space — and any number of runs later
// resume from them, each on its own fork. A resumed run is bit-identical
// to a from-scratch run of the same configuration: the machine is
// deterministic, so replaying the prefix and restoring it are
// indistinguishable.
package vm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// hook runs before a dispatch once the machine's event count reaches
// its wake point: a checkpointing run wakes just before each capture
// point, a resumed run only at the event its convergence check waits
// for. It returns true to stop the dispatch loop. A run without either
// never wakes.
type hook interface {
	at(m *machine) bool
}

// Checkpoints runs the program once under cfg and captures its state at
// event 0 and every stride events after: at each multiple of stride or,
// where one falls inside a block-leading phi group (which retires as one
// dispatch), at the group's first event, never twice at one event. The
// states are sorted by event, immutable and safe for concurrent Resume
// calls; a capture costs O(live registers + mapped-page pointers), page
// data being shared copy-on-write. Checkpoints builds the program's
// liveness tables, which capture, Resume and the convergence check read.
// Record mode and injection are rejected: checkpoints exist to skip
// re-executing the golden prefix, and faults are injected at Resume.
func (p *Program) Checkpoints(cfg interp.Config, stride int64) ([]*State, error) {
	if cfg.Record {
		return nil, fmt.Errorf("vm: Checkpoints does not support Record mode")
	}
	if cfg.Injection != nil {
		return nil, fmt.Errorf("vm: Checkpoints does not support injection; inject via Resume")
	}
	if stride < 1 {
		return nil, fmt.Errorf("vm: checkpoint stride %d, want at least 1", stride)
	}
	p.ensureLiveness()
	m, err := p.start(cfg)
	if err != nil {
		return nil, err
	}
	// A dispatch retires at most reach events, so none before
	// stop-reach+1 can carry the run past stop.
	c := &capturer{stride: stride, stop: stride, reach: int64(max(1, len(m.phiVals)))}
	c.states = []*State{c.capture(m)}
	m.hook, m.wake = c, c.stop-c.reach+1
	m.run()
	err = m.fatal
	m.release()
	if err != nil {
		return nil, err
	}
	return c.states, nil
}

// capturer is Checkpoints' hook: before the first dispatch that would
// carry the run past stop, it captures the machine in place (inner stored
// the top frame's pc before calling the hook) and moves stop on.
type capturer struct {
	stride, stop, reach int64
	states              []*State
	dirty               int64 // the address space's dirty pages at the last capture
}

func (c *capturer) at(m *machine) bool {
	cost := dispatchCost(m.stack[len(m.stack)-1])
	for m.dyn+cost > c.stop {
		if m.dyn > c.states[len(c.states)-1].event {
			c.states = append(c.states, c.capture(m))
		}
		c.stop += c.stride
	}
	m.wake = c.stop - c.reach + 1
	return false
}

// capture snapshots the machine, charging it the pages dirtied since the
// previous capture. Of each frame it keeps the continuation and the
// registers live at its pc: nothing else can affect a resumed run.
func (c *capturer) capture(m *machine) *State {
	dirty := m.as.DirtyPages()
	n := 0
	for _, fr := range m.stack {
		n += len(fr.fc.live.at(fr.pc))
	}
	st := &State{
		prog:    m.prog,
		event:   m.dyn,
		frames:  make([]frameState, len(m.stack)),
		live:    make([]liveReg, 0, n),
		as:      m.as.Fork(),
		outputs: m.outputs[:len(m.outputs):len(m.outputs)],
		globals: m.globals,
		cfg:     m.cfg,
		dirty:   dirty - c.dirty,
	}
	for i, fr := range m.stack {
		st.frames[i] = frameState{cont: fr.cont, live: int32(len(st.live))}
		for _, s := range fr.fc.live.at(fr.pc) {
			st.live = append(st.live, liveReg{bits: fr.regs[s], def: fr.defs[s]})
		}
	}
	c.dirty = dirty
	return st
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

// State is a captured point of one execution of a Program: the call stack
// (each frame's continuation and the registers live at its pc), emitted
// outputs, and a frozen COW fork of the simulated address space (stack
// pointer, heap break, VMA-table version history included). States are
// immutable; Resume forks them.
type State struct {
	prog   *Program
	event  int64
	frames []frameState
	// live holds, frame after frame, the register and def of each slot
	// live at the frame's pc, in the order liveTab.at lists them.
	live    []liveReg
	as      *mem.AddressSpace
	outputs []trace.Output
	globals map[*ir.Global]uint64
	cfg     interp.Config
	dirty   int64
}

// frameState is one captured frame: its continuation, and where its live
// registers start in State.live.
type frameState struct {
	cont
	live int32
}

// liveReg is one captured live register: its bits and defining event.
type liveReg struct {
	bits uint64
	def  int64
}

// Event returns the dynamic-event index the state was captured at: the
// number of events retired before the capture.
func (st *State) Event() int64 { return st.event }

// DirtyPages returns how many pages the golden run privately
// materialized or copy-on-write faulted between the previous capture and
// this one: the page cost of this state.
func (st *State) DirtyPages() int64 { return st.dirty }

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
// of executing it. COW page sharing makes the memory comparison a pointer
// compare per mapped page plus a byte compare per page that diverged.
type Convergence struct {
	// Golden is the fault-free run of the same configuration.
	Golden *interp.Result
	// Checkpoints are states of that run, sorted by event, as
	// Program.Checkpoints returns them.
	Checkpoints []*State
}

// convState is the machine-side cursor over golden checkpoints.
type convState struct {
	golden *interp.Result
	// cps are the checkpoints the run has not yet passed; cps[0] is the
	// one it waits for.
	cps []*State
}

// Resume continues execution from a captured state on a fresh COW fork
// of it, on the program it was captured from. The run inherits the
// capture-time configuration (layout, alignment, budget) and is
// bit-identical to a from-scratch run with the same injection: same
// outputs, exception, hang flag, and final event position. It runs on a
// pooled machine, whose pooled frames take the state's frames.
func Resume(st *State, opts ResumeOptions) (*interp.Result, error) {
	if opts.Injection != nil && opts.Injection.Event < st.event {
		return nil, fmt.Errorf("vm: injection event %d precedes snapshot event %d",
			opts.Injection.Event, st.event)
	}
	cfg := st.cfg
	cfg.Injection = opts.Injection
	m := st.prog.machine(cfg, st.as.Fork(), st.globals)
	for i := range st.frames {
		f := &st.frames[i]
		fr := m.takeFrame(f.fnIdx)
		fr.cont = f.cont
		live := st.live[f.live:]
		for k, s := range fr.fc.live.at(f.pc) {
			fr.regs[s], fr.defs[s] = live[k].bits, live[k].def
		}
		m.stack = append(m.stack, fr)
	}
	m.dyn, m.start = st.event, st.event
	c := opts.Convergence
	if c != nil && c.Golden != nil {
		m.outCap = len(c.Golden.Outputs)
	}
	if len(st.outputs) > 0 {
		m.outputs = append(make([]trace.Output, 0, max(len(st.outputs), m.outCap)), st.outputs...)
	}
	if c != nil && c.Golden != nil && !c.Golden.Hang {
		// A hung golden run has no final state to converge to: the faulty
		// run's larger budget would run past the golden horizon.
		cps := c.Checkpoints
		cps = cps[sort.Search(len(cps), func(i int) bool { return cps[i].event >= st.event }):]
		m.conv = convState{golden: c.Golden, cps: cps}
		m.hook = &m.conv
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
	for len(c.cps) > 0 && c.cps[0].event < m.dyn {
		// The run starts past it, or a phi group's dispatch jumped over it.
		c.cps = c.cps[1:]
	}
	if len(c.cps) == 0 {
		m.hook, m.wake = nil, math.MaxInt64
		return false
	}
	st := c.cps[0]
	if st.event > m.dyn {
		m.wake = st.event
		return false
	}
	c.cps = c.cps[1:]
	if !m.stateEqual(st) {
		m.wake = m.dyn + 1
		return false
	}
	m.outputs = append(m.outputs, c.golden.Outputs[len(st.outputs):]...)
	m.executed = m.dyn - m.start
	m.dyn = c.golden.DynInstrs
	m.exc = c.golden.Exception
	m.converged = true
	m.dropStack()
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
		if !frameEqual(m.stack[i], st, &st.frames[i]) {
			return false
		}
	}
	return m.as.Equal(st.as)
}

// frameEqual compares a frame's continuation and the locals and
// parameters live at its pc (live.go) with a captured frame of st; a dead
// slot is written before it is read again, so it cannot change the
// future. A frame waiting on a call also leaves out the call's result
// slot, which popFrame writes before the frame resumes. The constant and
// global tail is fixed per program and layout.
func frameEqual(a *vframe, st *State, f *frameState) bool {
	if a.cont != f.cont {
		return false
	}
	ret := -1
	if in := a.callInstr; in != nil && !in.Ty.IsVoid() {
		ret = in.LocalID
	}
	live := st.live[f.live:]
	for k, s := range a.fc.live.at(a.pc) {
		if int(s) != ret && (a.regs[s] != live[k].bits || a.defs[s] != live[k].def) {
			return false
		}
	}
	return true
}
