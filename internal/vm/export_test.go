package vm

// LiveSlots returns the slots the convergence check compares at pc in the
// program's function fn, building the liveness tables first.
func LiveSlots(p *Program, fn int, pc int32) []uint16 {
	p.ensureLiveness()
	return p.fns[fn].live.at(pc)
}

// BlockPCs returns the pc of each block's first instruction in the
// program's function fn.
func BlockPCs(p *Program, fn int) []int32 { return p.fns[fn].blockPC }

// PooledFrames counts the frames in the frame pools of the machine p's
// pool would hand out next, or 0 when the pool is empty.
func PooledFrames(p *Program) int {
	m, _ := p.machines.Get().(*machine)
	if m == nil {
		return 0
	}
	defer p.machines.Put(m)
	n := 0
	for _, frs := range m.pool {
		n += len(frs)
	}
	return n
}
