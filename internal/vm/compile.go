package vm

import (
	"fmt"
	"math"

	"cucc/internal/interp"
	"cucc/internal/kir"
)

// Compile lowers a kernel into a register-machine program.  Compilation
// only fails on resource exhaustion (register file overflow); constructs
// the interpreter rejects at runtime (unknown nodes, bad load types) are
// lowered to opErr instructions so the error still surfaces only if the
// offending statement actually executes, exactly like the interpreter.
func Compile(k *kir.Kernel) (*CompiledKernel, error) {
	p := &CompiledKernel{
		Kernel:  k,
		hasSync: k.HasSync(),
		ciBase:  numReservedI + k.NumSlots,
		cfBase:  k.NumSlots,
	}
	c := &compiler{
		k:        k,
		p:        p,
		intConst: make(map[int64]uint16),
		fltConst: make(map[uint64]uint16),
		arrIDs:   make(map[string]uint16),
		errIdxs:  make(map[string]int32),
	}
	base := 0
	for _, sh := range k.Shared {
		c.arrIDs[sh.Name] = uint16(len(p.shared))
		p.shared = append(p.shared, sharedMeta{name: sh.Name, elem: sh.Elem, base: base, n: sh.Len})
		base += sh.Len
	}
	p.sharedLen = base

	// Pre-scan interns every literal so the constant pools are complete
	// before the temporary region (which starts right after them) is laid
	// out.  0, 1, and 0.0 are always present: they synthesize logical
	// results and the zero reads of a value's inactive field.
	c.zeroI = c.internInt(0)
	c.oneI = c.internInt(1)
	c.zeroF = c.internFloat(0)
	c.scanBlock(k.Body)
	c.frozen = true
	c.tiBase = p.ciBase + len(p.constI)
	c.tfBase = p.cfBase + len(p.constF)
	c.maxTI, c.maxTF = c.tiBase, c.tfBase

	c.compileBlock(k.Body)
	c.emit(instr{op: opRet})
	if c.err != nil {
		return nil, c.err
	}
	p.code = fuse(c.code, k.NumSlots, c.tiBase, c.tfBase)
	p.numI = c.maxTI
	p.numF = c.maxTF
	p.mutI, p.mutF = slotWriters(p.code, k.NumSlots)
	return p, nil
}

// slotWriters scans a program for the variable slots it writes: int slots
// are registers [numReservedI, numReservedI+numSlots) of the int file,
// float slots are registers [0, numSlots) of the float file.
func slotWriters(code []instr, numSlots int) (mutI, mutF []int) {
	seenI := make([]bool, numSlots)
	seenF := make([]bool, numSlots)
	for _, in := range code {
		switch in.op {
		case opMovVar:
			// Writes int slot d and float slot d directly.
			seenI[in.d] = true
			seenF[in.d] = true
		case opMovI, opNotI, opNotF, opCastFI, opCastU8,
			opNegI, opAddI, opSubI, opMulI, opMulAddI, opDivI, opRemI,
			opAndI, opOrI, opXorI, opShlI, opShrI,
			opLtI, opLeI, opGtI, opGeI, opEqI, opNeI,
			opLtF, opLeF, opGtF, opGeF, opEqF, opNeF,
			opMinI, opMaxI, opAbsI, opLdGI, opLdGU8, opLdSI:
			if s := int(in.d) - numReservedI; s >= 0 && s < numSlots {
				seenI[s] = true
			}
		case opMovF, opCastIF,
			opNegF, opAddF, opSubF, opMulF, opMulAddF, opDivF,
			opSqrt, opExp, opLog, opFabs, opFmin, opFmax, opPow,
			opSin, opCos, opTanh, opLdGF, opLdSF:
			if int(in.d) < numSlots {
				seenF[int(in.d)] = true
			}
		}
	}
	for s := 0; s < numSlots; s++ {
		if seenI[s] {
			mutI = append(mutI, s)
		}
		if seenF[s] {
			mutF = append(mutF, s)
		}
	}
	return mutI, mutF
}

// fuse is the post-compile peephole pass emitting superinstructions for the
// hot adjacent pairs the PR-5 opcode profiler surfaced (assignment move
// pairs, multiply-add chains, compare+branch loop conditions).  A pair
// [i, i+1] fuses only when no jump targets i+1 (the pair always executes
// together) and, for the value-forwarding fusions, when the intermediate is
// a temporary register: the compiler allocates each temporary for exactly
// one consuming read before the next statement rewrites it, so dropping the
// intermediate write is safe.  Jump targets are remapped to the shortened
// instruction stream, exactly like the profiler's instrumentation pass.
func fuse(code []instr, numSlots, tiBase, tfBase int) []instr {
	n := len(code)
	target := make([]bool, n+1)
	for _, in := range code {
		if isJump(in.op) {
			target[in.imm] = true
		}
	}
	out := make([]instr, 0, n)
	oldToNew := make([]int32, n+1)
	for i := 0; i < n; i++ {
		oldToNew[i] = int32(len(out))
		in := code[i]
		if i+1 < n && !target[i+1] {
			if f, ok := fusePair(in, code[i+1], numSlots, tiBase, tfBase); ok {
				out = append(out, f)
				i++
				oldToNew[i] = int32(len(out) - 1)
				continue
			}
		}
		out = append(out, in)
	}
	oldToNew[n] = int32(len(out))
	for i := range out {
		if isJump(out[i].op) {
			out[i].imm = oldToNew[out[i].imm]
		}
	}
	return out
}

// fusePair matches one superinstruction pattern against an adjacent
// instruction pair.
func fusePair(in, nx instr, numSlots, tiBase, tfBase int) (instr, bool) {
	switch {
	case in.op == opMovI && nx.op == opMovF &&
		int(nx.d) < numSlots && int(in.d) == int(nx.d)+numReservedI:
		// The two halves of a variable-slot assignment (Decl/Assign always
		// emit them adjacently).  Combining the independent int/float file
		// writes is unconditionally safe.
		return instr{op: opMovVar, d: nx.d, a: in.a, b: nx.a}, true

	case in.op == opMulF && int(in.d) >= tfBase && nx.op == opAddF:
		t := in.d
		if nx.a == t && nx.b != t {
			return instr{op: opMulAddF, d: nx.d, a: in.a, b: in.b,
				imm: int32(nx.b) | mulAddSwapBit}, true
		}
		if nx.b == t && nx.a != t {
			return instr{op: opMulAddF, d: nx.d, a: in.a, b: in.b,
				imm: int32(nx.a)}, true
		}

	case in.op == opMulI && int(in.d) >= tiBase && nx.op == opAddI:
		t := in.d
		if (nx.a == t) != (nx.b == t) {
			c := nx.a
			if c == t {
				c = nx.b
			}
			return instr{op: opMulAddI, d: nx.d, a: in.a, b: in.b, imm: int32(c)}, true
		}

	case in.op >= opLtI && in.op <= opNeI && int(in.d) >= tiBase &&
		(nx.op == opJzI || nx.op == opJnzI) && nx.a == in.d:
		d := uint16(in.op - opLtI)
		if nx.op == opJnzI {
			d |= cjmpSenseBit
		}
		return instr{op: opCJmpI, d: d, a: in.a, b: in.b, imm: nx.imm}, true

	case in.op >= opLtF && in.op <= opNeF && int(in.d) >= tiBase &&
		(nx.op == opJzI || nx.op == opJnzI) && nx.a == in.d:
		// Float compares write their 0/1 result into an int temporary, so
		// the consuming jump is the integer form.
		d := uint16(in.op - opLtF)
		if nx.op == opJnzI {
			d |= cjmpSenseBit
		}
		return instr{op: opCJmpF, d: d, a: in.a, b: in.b, imm: nx.imm}, true
	}
	return instr{}, false
}

// cmpI applies an integer comparison kind (opCJmpI's d field, 0..5 =
// Lt..Ne).
func cmpI(kind uint16, x, y int64) bool {
	switch kind {
	case 0:
		return x < y
	case 1:
		return x <= y
	case 2:
		return x > y
	case 3:
		return x >= y
	case 4:
		return x == y
	default:
		return x != y
	}
}

// cmpF is cmpI over the float file.
func cmpF(kind uint16, x, y float64) bool {
	switch kind {
	case 0:
		return x < y
	case 1:
		return x <= y
	case 2:
		return x > y
	case 3:
		return x >= y
	case 4:
		return x == y
	default:
		return x != y
	}
}

type compiler struct {
	k    *kir.Kernel
	p    *CompiledKernel
	code []instr
	err  error

	intConst           map[int64]uint16
	fltConst           map[uint64]uint16 // keyed by bit pattern so NaN literals intern
	frozen             bool              // constant pools complete; interning new values is a bug
	zeroI, oneI, zeroF uint16

	arrIDs  map[string]uint16
	errIdxs map[string]int32

	// Temporary registers are allocated monotonically within a statement
	// and recycled between statements (no value lives across a statement
	// boundary except through variable slots).
	tiBase, tfBase int
	ti, tf         int
	maxTI, maxTF   int

	loops []loopCtx
}

// loopCtx collects the jump sites of break/continue statements inside one
// loop for backpatching.
type loopCtx struct {
	breaks []int
	conts  []int
}

func (c *compiler) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *compiler) internInt(v int64) uint16 {
	if r, ok := c.intConst[v]; ok {
		return r
	}
	if c.frozen {
		c.fail("vm: compiler bug: int constant %d missed by pre-scan", v)
		return c.zeroI
	}
	r := uint16(c.p.ciBase + len(c.p.constI))
	c.intConst[v] = r
	c.p.constI = append(c.p.constI, v)
	return r
}

func (c *compiler) internFloat(v float64) uint16 {
	key := math.Float64bits(v)
	if r, ok := c.fltConst[key]; ok {
		return r
	}
	if c.frozen {
		c.fail("vm: compiler bug: float constant %g missed by pre-scan", v)
		return c.zeroF
	}
	r := uint16(c.p.cfBase + len(c.p.constF))
	c.fltConst[key] = r
	c.p.constF = append(c.p.constF, v)
	return r
}

func (c *compiler) slotI(s int) uint16 { return uint16(numReservedI + s) }
func (c *compiler) slotF(s int) uint16 { return uint16(s) }

const maxRegs = 60000

func (c *compiler) newTI() uint16 {
	r := c.ti
	c.ti++
	if c.ti > c.maxTI {
		c.maxTI = c.ti
	}
	if r > maxRegs {
		c.fail("vm: kernel %s: integer register file overflow", c.k.Name)
		return 0
	}
	return uint16(r)
}

func (c *compiler) newTF() uint16 {
	r := c.tf
	c.tf++
	if c.tf > c.maxTF {
		c.maxTF = c.tf
	}
	if r > maxRegs {
		c.fail("vm: kernel %s: float register file overflow", c.k.Name)
		return 0
	}
	return uint16(r)
}

// arrID resolves a shared-array name, synthesizing a zero-length entry for
// names the kernel never declared (the interpreter treats those as nil
// slices, so every access fails the bounds check at runtime).
func (c *compiler) arrID(name string) uint16 {
	if id, ok := c.arrIDs[name]; ok {
		return id
	}
	id := uint16(len(c.p.shared))
	c.arrIDs[name] = id
	c.p.shared = append(c.p.shared, sharedMeta{name: name})
	return id
}

func (c *compiler) errIdx(msg string) int32 {
	if i, ok := c.errIdxs[msg]; ok {
		return i
	}
	i := int32(len(c.p.errs))
	c.errIdxs[msg] = i
	c.p.errs = append(c.p.errs, msg)
	return i
}

func (c *compiler) emit(in instr) int {
	c.code = append(c.code, in)
	return len(c.code) - 1
}

func (c *compiler) here() int32 { return int32(len(c.code)) }

func (c *compiler) patch(at int, target int32) { c.code[at].imm = target }

// --- constant pre-scan ---

func (c *compiler) scanBlock(b kir.Block) {
	for _, s := range b {
		c.scanStmt(s)
	}
}

func (c *compiler) scanStmt(s kir.Stmt) {
	switch s := s.(type) {
	case *kir.Decl:
		if s.Init != nil {
			c.scanExpr(s.Init)
		}
	case *kir.Assign:
		c.scanExpr(s.Value)
	case *kir.Store:
		c.scanExpr(s.Index)
		c.scanExpr(s.Value)
	case *kir.AtomicRMW:
		c.scanExpr(s.Index)
		c.scanExpr(s.Value)
	case *kir.If:
		c.scanExpr(s.Cond)
		c.scanBlock(s.Then)
		c.scanBlock(s.Else)
	case *kir.For:
		if s.Init != nil {
			c.scanStmt(s.Init)
		}
		c.scanExpr(s.Cond)
		if s.Post != nil {
			c.scanStmt(s.Post)
		}
		c.scanBlock(s.Body)
	case *kir.While:
		c.scanExpr(s.Cond)
		c.scanBlock(s.Body)
	}
}

func (c *compiler) scanExpr(e kir.Expr) {
	switch e := e.(type) {
	case nil:
	case *kir.IntLit:
		c.internInt(e.Val)
	case *kir.FloatLit:
		c.internFloat(float64(float32(e.Val)))
	case *kir.Binary:
		c.scanExpr(e.L)
		c.scanExpr(e.R)
	case *kir.Unary:
		c.scanExpr(e.X)
	case *kir.Load:
		c.scanExpr(e.Index)
	case *kir.Call:
		for _, a := range e.Args {
			c.scanExpr(a)
		}
	case *kir.Cast:
		c.scanExpr(e.X)
	case *kir.Select:
		c.scanExpr(e.Cond)
		c.scanExpr(e.A)
		c.scanExpr(e.B)
	}
}

// --- statement lowering ---

func (c *compiler) compileBlock(b kir.Block) {
	for _, s := range b {
		c.compileStmt(s)
	}
}

func (c *compiler) compileStmt(s kir.Stmt) {
	if c.err != nil {
		return
	}
	c.ti, c.tf = c.tiBase, c.tfBase
	switch s := s.(type) {
	case *kir.Decl:
		if s.Init != nil {
			i, f := c.compileExpr(s.Init)
			c.emit(instr{op: opMovI, d: c.slotI(s.Slot), a: i})
			c.emit(instr{op: opMovF, d: c.slotF(s.Slot), a: f})
		} else {
			c.emit(instr{op: opMovI, d: c.slotI(s.Slot), a: c.zeroI})
			c.emit(instr{op: opMovF, d: c.slotF(s.Slot), a: c.zeroF})
		}
	case *kir.Assign:
		i, f := c.compileExpr(s.Value)
		c.emit(instr{op: opMovI, d: c.slotI(s.Slot), a: i})
		c.emit(instr{op: opMovF, d: c.slotF(s.Slot), a: f})
	case *kir.Store:
		idx := c.compileI(s.Index)
		if s.Mem.Space == kir.Shared {
			vi, vf := c.compileExpr(s.Value)
			c.emit(instr{op: opStS, a: idx, d: vi, b: vf, imm: int32(c.arrID(s.Mem.Name))})
			return
		}
		switch c.k.Params[s.Mem.Param].Elem {
		case kir.F32:
			vf := c.compileF(s.Value)
			c.emit(instr{op: opStGF, d: vf, a: idx, b: uint16(s.Mem.Param)})
		case kir.I32:
			vi := c.compileI(s.Value)
			c.emit(instr{op: opStGI, d: vi, a: idx, b: uint16(s.Mem.Param)})
		case kir.U8:
			vi := c.compileI(s.Value)
			c.emit(instr{op: opStGU8, d: vi, a: idx, b: uint16(s.Mem.Param)})
		default:
			c.fail("vm: kernel %s: store to %s parameter %s", c.k.Name,
				c.k.Params[s.Mem.Param].Elem, s.Mem.Name)
		}
	case *kir.AtomicRMW:
		idx := c.compileI(s.Index)
		vi, vf := c.compileExpr(s.Value)
		var o op
		if s.Mem.Space == kir.Shared {
			o = opAtSAdd
			if s.Op == kir.AtomicMax {
				o = opAtSMax
			}
			c.emit(instr{op: o, a: idx, d: vi, b: vf, imm: int32(c.arrID(s.Mem.Name))})
			return
		}
		o = opAtGAdd
		if s.Op == kir.AtomicMax {
			o = opAtGMax
		}
		c.emit(instr{op: o, a: idx, d: vi, b: vf, imm: int32(s.Mem.Param)})
	case *kir.If:
		jz := c.condJumpFalse(s.Cond)
		c.compileBlock(s.Then)
		if len(s.Else) > 0 {
			jend := c.emit(instr{op: opJmp})
			c.patch(jz, c.here())
			c.compileBlock(s.Else)
			c.patch(jend, c.here())
		} else {
			c.patch(jz, c.here())
		}
	case *kir.For:
		if s.Init != nil {
			c.compileStmt(s.Init)
		}
		c.loops = append(c.loops, loopCtx{})
		head := c.here()
		c.emit(instr{op: opTick})
		c.ti, c.tf = c.tiBase, c.tfBase
		jz := c.condJumpFalse(s.Cond)
		c.compileBlock(s.Body)
		// continue lands on the post statement, then back to the tick.
		lp := &c.loops[len(c.loops)-1]
		post := c.here()
		for _, at := range lp.conts {
			c.patch(at, post)
		}
		if s.Post != nil {
			c.compileStmt(s.Post)
		}
		c.emit(instr{op: opJmp, imm: head})
		end := c.here()
		c.patch(jz, end)
		for _, at := range lp.breaks {
			c.patch(at, end)
		}
		c.loops = c.loops[:len(c.loops)-1]
	case *kir.While:
		c.loops = append(c.loops, loopCtx{})
		head := c.here()
		c.emit(instr{op: opTick})
		c.ti, c.tf = c.tiBase, c.tfBase
		jz := c.condJumpFalse(s.Cond)
		c.compileBlock(s.Body)
		c.emit(instr{op: opJmp, imm: head})
		end := c.here()
		c.patch(jz, end)
		lp := &c.loops[len(c.loops)-1]
		for _, at := range lp.conts {
			c.patch(at, head)
		}
		for _, at := range lp.breaks {
			c.patch(at, end)
		}
		c.loops = c.loops[:len(c.loops)-1]
	case *kir.Sync:
		c.emit(instr{op: opSync})
	case *kir.Return:
		c.emit(instr{op: opRet})
	case *kir.BreakStmt:
		// Outside a loop, break/continue bubble out of the kernel body in
		// the interpreter, ending the thread.
		if len(c.loops) == 0 {
			c.emit(instr{op: opRet})
			return
		}
		lp := &c.loops[len(c.loops)-1]
		lp.breaks = append(lp.breaks, c.emit(instr{op: opJmp}))
	case *kir.ContinueStmt:
		if len(c.loops) == 0 {
			c.emit(instr{op: opRet})
			return
		}
		lp := &c.loops[len(c.loops)-1]
		lp.conts = append(lp.conts, c.emit(instr{op: opJmp}))
	default:
		c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: unknown statement %T", s))})
	}
}

// condJumpFalse evaluates a condition and emits a jump-if-false with an
// unpatched target, honoring the interpreter's truthiness rule: an
// expression of static type F32 tests its float field, everything else its
// int field.
func (c *compiler) condJumpFalse(cond kir.Expr) int {
	if cond == nil {
		c.emit(instr{op: opErr, imm: c.errIdx("vm: unknown expression <nil>")})
		return c.emit(instr{op: opJzI, a: c.zeroI}) // unreachable, patchable
	}
	i, f := c.compileExpr(cond)
	if cond.Type() == kir.F32 {
		return c.emit(instr{op: opJzF, a: f})
	}
	return c.emit(instr{op: opJzI, a: i})
}

// --- expression lowering ---

// compileI compiles e and returns the register holding the I field of its
// interp.Value result (the zero constant when the expression computes into
// the float field — the interpreter's inactive-field-is-zero semantics).
func (c *compiler) compileI(e kir.Expr) uint16 {
	i, _ := c.compileExpr(e)
	return i
}

// compileF is the float-field counterpart of compileI.
func (c *compiler) compileF(e kir.Expr) uint16 {
	_, f := c.compileExpr(e)
	return f
}

// compileExpr emits code evaluating e exactly once and returns the register
// pair mirroring the interp.Value it produces.  Pass-through nodes (VarRef,
// identity casts, Select) forward both fields; computing nodes return their
// result register plus the zero constant for the inactive field.
func (c *compiler) compileExpr(e kir.Expr) (uint16, uint16) {
	if c.err != nil {
		return c.zeroI, c.zeroF
	}
	switch e := e.(type) {
	case *kir.IntLit:
		return c.internInt(e.Val), c.zeroF
	case *kir.FloatLit:
		return c.zeroI, c.internFloat(float64(float32(e.Val)))
	case *kir.VarRef:
		return c.slotI(e.Slot), c.slotF(e.Slot)
	case *kir.BuiltinRef:
		return uint16(e.B)*2 + uint16(e.Axis), c.zeroF
	case *kir.Binary:
		return c.compileBinary(e)
	case *kir.Unary:
		if e.Op == kir.Neg {
			if e.T == kir.F32 {
				x := c.compileF(e.X)
				d := c.newTF()
				c.emit(instr{op: opNegF, d: d, a: x})
				return c.zeroI, d
			}
			x := c.compileI(e.X)
			d := c.newTI()
			c.emit(instr{op: opNegI, d: d, a: x})
			return d, c.zeroF
		}
		// Not tests the operand's own truthiness.
		d := c.newTI()
		if e.X.Type() == kir.F32 {
			x := c.compileF(e.X)
			c.emit(instr{op: opNotF, d: d, a: x})
		} else {
			x := c.compileI(e.X)
			c.emit(instr{op: opNotI, d: d, a: x})
		}
		return d, c.zeroF
	case *kir.Load:
		idx := c.compileI(e.Index)
		if e.Mem.Space == kir.Shared {
			// Shared cells are full Value pairs: load both fields (the
			// byte charge is applied once, on the first load).
			id := c.arrID(e.Mem.Name)
			di, df := c.newTI(), c.newTF()
			c.emit(instr{op: opLdSI, d: di, a: idx, b: id, imm: int32(e.T.Size())})
			c.emit(instr{op: opLdSF, d: df, a: idx, b: id})
			return di, df
		}
		switch e.T {
		case kir.F32:
			d := c.newTF()
			c.emit(instr{op: opLdGF, d: d, a: idx, b: uint16(e.Mem.Param)})
			return c.zeroI, d
		case kir.I32:
			d := c.newTI()
			c.emit(instr{op: opLdGI, d: d, a: idx, b: uint16(e.Mem.Param)})
			return d, c.zeroF
		case kir.U8:
			d := c.newTI()
			c.emit(instr{op: opLdGU8, d: d, a: idx, b: uint16(e.Mem.Param)})
			return d, c.zeroF
		default:
			c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: bad load type %s", e.T))})
			return c.zeroI, c.zeroF
		}
	case *kir.Call:
		return c.compileCall(e)
	case *kir.Cast:
		from, to := e.X.Type(), e.To
		switch {
		case from == to:
			return c.compileExpr(e.X)
		case to == kir.F32:
			if from.IsInteger() || from == kir.Bool {
				x := c.compileI(e.X)
				d := c.newTF()
				c.emit(instr{op: opCastIF, d: d, a: x})
				return c.zeroI, d
			}
			return c.compileExpr(e.X)
		case to.IsInteger():
			if from == kir.F32 {
				x := c.compileF(e.X)
				d := c.newTI()
				c.emit(instr{op: opCastFI, d: d, a: x})
				return d, c.zeroF
			}
			if to == kir.U8 {
				x := c.compileI(e.X)
				d := c.newTI()
				c.emit(instr{op: opCastU8, d: d, a: x})
				return d, c.zeroF
			}
			return c.compileExpr(e.X)
		default:
			// Casts to Bool are identity in the interpreter.
			return c.compileExpr(e.X)
		}
	case *kir.Select:
		di, df := c.newTI(), c.newTF()
		jz := c.condJumpFalse(e.Cond)
		ai, af := c.compileExpr(e.A)
		c.emit(instr{op: opMovI, d: di, a: ai})
		c.emit(instr{op: opMovF, d: df, a: af})
		jend := c.emit(instr{op: opJmp})
		c.patch(jz, c.here())
		bi, bf := c.compileExpr(e.B)
		c.emit(instr{op: opMovI, d: di, a: bi})
		c.emit(instr{op: opMovF, d: df, a: bf})
		c.patch(jend, c.here())
		return di, df
	default:
		c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: unknown expression %T", e))})
		return c.zeroI, c.zeroF
	}
}

// truthJump evaluates e and emits a conditional jump taken when e's
// truthiness equals whenTrue, returning the patch site.
func (c *compiler) truthJump(e kir.Expr, whenTrue bool) int {
	i, f := c.compileExpr(e)
	if e.Type() == kir.F32 {
		if whenTrue {
			return c.emit(instr{op: opJnzF, a: f})
		}
		return c.emit(instr{op: opJzF, a: f})
	}
	if whenTrue {
		return c.emit(instr{op: opJnzI, a: i})
	}
	return c.emit(instr{op: opJzI, a: i})
}

var cmpIOps = [...]op{opLtI, opLeI, opGtI, opGeI, opEqI, opNeI}
var cmpFOps = [...]op{opLtF, opLeF, opGtF, opGeF, opEqF, opNeF}

func (c *compiler) compileBinary(e *kir.Binary) (uint16, uint16) {
	if e.Op == kir.LAnd || e.Op == kir.LOr {
		// Short-circuit: the right operand is not evaluated (no work, no
		// errors) when the left decides the result.
		d := c.newTI()
		if e.Op == kir.LAnd {
			jl := c.truthJump(e.L, false)
			jr := c.truthJump(e.R, false)
			c.emit(instr{op: opMovI, d: d, a: c.oneI})
			jend := c.emit(instr{op: opJmp})
			c.patch(jl, c.here())
			c.patch(jr, c.here())
			c.emit(instr{op: opMovI, d: d, a: c.zeroI})
			c.patch(jend, c.here())
		} else {
			jl := c.truthJump(e.L, true)
			jr := c.truthJump(e.R, true)
			c.emit(instr{op: opMovI, d: d, a: c.zeroI})
			jend := c.emit(instr{op: opJmp})
			c.patch(jl, c.here())
			c.patch(jr, c.here())
			c.emit(instr{op: opMovI, d: d, a: c.oneI})
			c.patch(jend, c.here())
		}
		return d, c.zeroF
	}
	// The interpreter picks float semantics when either operand is F32,
	// regardless of the node's annotated result type.
	isF := e.L.Type() == kir.F32 || e.R.Type() == kir.F32
	if e.Op.IsComparison() {
		d := c.newTI()
		if isF {
			l := c.compileF(e.L)
			r := c.compileF(e.R)
			c.emit(instr{op: cmpFOps[e.Op-kir.Lt], d: d, a: l, b: r})
		} else {
			l := c.compileI(e.L)
			r := c.compileI(e.R)
			c.emit(instr{op: cmpIOps[e.Op-kir.Lt], d: d, a: l, b: r})
		}
		return d, c.zeroF
	}
	if isF {
		l := c.compileF(e.L)
		r := c.compileF(e.R)
		var o op
		switch e.Op {
		case kir.Add:
			o = opAddF
		case kir.Sub:
			o = opSubF
		case kir.Mul:
			o = opMulF
		case kir.Div:
			o = opDivF
		default:
			c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: operator %s on floats", e.Op))})
			return c.zeroI, c.zeroF
		}
		d := c.newTF()
		c.emit(instr{op: o, d: d, a: l, b: r})
		return c.zeroI, d
	}
	l := c.compileI(e.L)
	r := c.compileI(e.R)
	var o op
	switch e.Op {
	case kir.Add:
		o = opAddI
	case kir.Sub:
		o = opSubI
	case kir.Mul:
		o = opMulI
	case kir.Div:
		o = opDivI
	case kir.Rem:
		o = opRemI
	case kir.BAnd:
		o = opAndI
	case kir.BOr:
		o = opOrI
	case kir.BXor:
		o = opXorI
	case kir.Shl:
		o = opShlI
	case kir.Shr:
		o = opShrI
	default:
		c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: operator %s on ints", e.Op))})
		return c.zeroI, c.zeroF
	}
	d := c.newTI()
	c.emit(instr{op: o, d: d, a: l, b: r})
	return d, c.zeroF
}

var intrinsicOps = [...]op{
	kir.Sqrt: opSqrt, kir.Exp: opExp, kir.Log: opLog, kir.Fabs: opFabs,
	kir.Fmin: opFmin, kir.Fmax: opFmax, kir.Pow: opPow, kir.Sin: opSin,
	kir.Cos: opCos, kir.Tanh: opTanh, kir.MinI: opMinI, kir.MaxI: opMaxI,
	kir.AbsI: opAbsI,
}

func (c *compiler) compileCall(e *kir.Call) (uint16, uint16) {
	if int(e.Fn) >= len(intrinsicOps) {
		c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: unknown intrinsic %s", e.Fn))})
		return c.zeroI, c.zeroF
	}
	isInt := e.Fn == kir.MinI || e.Fn == kir.MaxI || e.Fn == kir.AbsI
	// Arguments are fully evaluated left to right before the intrinsic
	// applies; integer intrinsics read the I field, float ones the F field.
	regs := make([]uint16, 0, 2)
	for _, a := range e.Args {
		if isInt {
			regs = append(regs, c.compileI(a))
		} else {
			regs = append(regs, c.compileF(a))
		}
	}
	in := instr{op: intrinsicOps[e.Fn], imm: int32(interp.IntrinsicFlops(e.Fn))}
	if len(regs) > 0 {
		in.a = regs[0]
	}
	if len(regs) > 1 {
		in.b = regs[1]
	}
	if isInt {
		in.d = c.newTI()
		c.emit(in)
		return in.d, c.zeroF
	}
	in.d = c.newTF()
	c.emit(in)
	return c.zeroI, in.d
}
