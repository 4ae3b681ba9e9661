package shader

// ReadMasks returns which input registers (bit i = v_i) and constant
// registers (bit i = c_i) the program actually reads. Fragment Memoization
// hashes "all shader inputs" [17], which means the inputs the program
// consumes — an unread register cannot affect the output, so it must not
// defeat memoization (while Rendering Elimination, which signs the raw
// command data without inspecting shader dataflow, conservatively treats it
// as input; that asymmetry produces the paper's "equal colors, different
// inputs" tiles). A nil program reads nothing.
func (p *Program) ReadMasks() (inputs uint16, consts uint32) {
	if p == nil {
		return 0, 0
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for s := 0; s < nsrc[in.Op]; s++ {
			src := in.Src[s]
			switch src.File {
			case FileInput:
				inputs |= 1 << src.Idx
			case FileConst:
				consts |= 1 << src.Idx
			}
		}
	}
	return inputs, consts
}
