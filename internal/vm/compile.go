package vm

import (
	"fmt"
	"math"
	"slices"

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
		code:     make([]instr, 0, 64),
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

	c.classify()

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
	// Every slot write is a Decl or an Assign of both fields, and the
	// classifier moved exactly those slots off clsConst.
	for s, sl := range c.slots {
		if sl.cls != clsConst {
			p.mutI = append(p.mutI, s)
		}
	}
	p.mutF = p.mutI
	return p, nil
}

// fuse is the post-compile peephole pass emitting superinstructions for the
// hot adjacent pairs the PR-5 opcode profiler surfaced (assignment move
// pairs, multiply-add chains, compare+branch loop conditions).  A pair
// [i, i+1] fuses only when no jump targets i+1 (the pair always executes
// together) and, for the value-forwarding fusions, when the intermediate is
// a temporary register: the compiler allocates each temporary for exactly
// one consuming read before the next statement rewrites it, so dropping the
// intermediate write is safe.  The halves must also agree on being
// scalar-executed, and a per-lane pair fuses only into a scalar-operand form
// the fused opcode has (see scalarForms); a pair left apart keeps the forms
// of its halves.  Jump targets are remapped to the shortened instruction
// stream, exactly like the profiler's instrumentation pass.
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
	case in.op == opMovI && nx.op == opMovF && in.u == nx.u &&
		int(nx.d) < numSlots && int(in.d) == int(nx.d)+numReservedI:
		// The two halves of a variable-slot assignment (Decl/Assign always
		// emit them adjacently, with the same flags).  Combining the
		// independent int/float file writes is unconditionally safe.
		return instr{op: opMovVar, u: in.u, d: nx.d, a: in.a, b: nx.a}, true

	case in.op == opMulF && int(in.d) >= tfBase && nx.op == opAddF &&
		in.u&uExec == nx.u&uExec && nx.u&^uExec == 0:
		// Both scalar-executed, or a per-lane add with a per-lane addend,
		// in which case the product's own uA/uB carries over.
		t := in.d
		if nx.a == t && nx.b != t {
			return instr{op: opMulAddF, u: in.u, d: nx.d, a: in.a, b: in.b,
				imm: int32(nx.b) | mulAddSwapBit}, true
		}
		if nx.b == t && nx.a != t {
			return instr{op: opMulAddF, u: in.u, d: nx.d, a: in.a, b: in.b,
				imm: int32(nx.a)}, true
		}

	case in.op == opMulI && int(in.d) >= tiBase && nx.op == opAddI &&
		in.u&uExec == nx.u&uExec && (in.u == 0 || nx.u&uB == 0):
		// binary keeps an integer op's uniform operand in b, so the
		// product's flag is uB and a uniform addend shows as the add's uB;
		// the fused form takes one of them, not both.
		t := in.d
		if (nx.a == t) != (nx.b == t) {
			c, u := nx.a, in.u
			if c == t {
				c = nx.b
			}
			if nx.u&uB != 0 {
				u = uC
			}
			return instr{op: opMulAddI, u: u, d: nx.d, a: in.a, b: in.b, imm: int32(c)}, true
		}

	case in.op == opAddI && in.u == uB && int(in.d) >= tiBase &&
		nx.op == opLdGF && nx.u == 0 && nx.a == in.d:
		// A float load indexed by a per-lane value plus a batch scalar
		// (`in[id + t]`, `b[j*n + col]`): the add moves into the load.
		return instr{op: opLdGF, u: uC, d: nx.d, a: in.a, b: nx.b, imm: int32(in.b)}, true

	case in.op >= opLtI && in.op <= opNeI && int(in.d) >= tiBase &&
		(nx.op == opJzI || nx.op == opJnzI) && nx.a == in.d &&
		in.u&uExec == nx.u&uExec:
		d := uint16(in.op - opLtI)
		if nx.op == opJnzI {
			d |= cjmpSenseBit
		}
		return instr{op: opCJmpI, u: in.u, d: d, a: in.a, b: in.b, imm: nx.imm}, true

	case in.op >= opLtF && in.op <= opNeF && int(in.d) >= tiBase &&
		(nx.op == opJzI || nx.op == opJnzI) && nx.a == in.d &&
		in.u == nx.u:
		// Float compares write their 0/1 result into an int temporary, so
		// the consuming jump is the integer form.  opCJmpF has no
		// scalar-operand form: a flagged compare stays apart.
		d := uint16(in.op - opLtF)
		if nx.op == opJnzI {
			d |= cjmpSenseBit
		}
		return instr{op: opCJmpF, u: in.u, d: d, a: in.a, b: in.b, imm: nx.imm}, true
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

// class sorts a value by how it varies across the threads of a lane batch.
// The order matters: an instruction's result is as variable as its most
// variable operand.
type class uint8

const (
	// clsConst is a launch constant: the same in every thread of the launch
	// and held in a row whose every cell is valid (constant pool, unwritten
	// arguments, blockIdx/blockDim/gridDim).
	clsConst class = iota
	// clsScalar is a batch scalar: the same in every thread that can read
	// it, computed once per batch, kept in the lane-0 cell of its row only.
	clsScalar
	// clsRow is a per-lane value.
	clsRow
)

// slotInfo is the classifier's state for one variable slot.
type slotInfo struct {
	cls   class
	decl  int32 // region holding the slot's Decl in this pass; 0: none seen yet
	open  bool  // the walk is inside the Decl's scope
	loose bool  // referenced outside that scope: the slot lives at the top level
}

// forceUniform is the mutation-test seam, set only from export_test.go: the
// classifier stops demoting slots, so every written slot is called a batch
// scalar and the differential tests must find a counterexample.
var forceUniform bool

type compiler struct {
	k    *kir.Kernel
	p    *CompiledKernel
	code []instr
	err  error

	// Classifier state (classify).  slots is also what code generation
	// reads each VarRef's and each assignment's class from.
	slots     []slotInfo
	rgn       int32 // innermost thread-variant-controlled region of the walk
	nextRgn   int32
	noScalars bool       // a barrier sits under thread-variant control
	dirty     bool       // this pass demoted something: walk again
	loop      kir.Stmt   // innermost enclosing loop of the walk
	loopRgn   int32      // region of its body
	varLoops  []kir.Stmt // loops some threads leave early by break/continue

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

// --- value classes ---

// topRegion is the region of code every live thread of a batch runs
// together: the kernel body outside any thread-variant control.
const topRegion = 1

// classify decides every variable slot's class before code is generated.
//
// It starts from "uniform" and only ever demotes, re-walking the kernel
// while a pass demoted something (a later write can make an earlier read
// per-lane); each pass is one tree walk, and suite kernels settle in two.
//
// One shared cell can stand for a slot's value in every lane only if each
// write is made by all the threads that may read the slot afterwards.  Lanes
// run in lockstep and meet again at the join of every branch, so that holds
// for a write at the top level, and fails for a write inside a region only
// part of the batch executes: an arm of an if with a per-lane condition, a
// loop with a per-lane condition, a loop some threads break or continue out
// of (its every later statement and iteration runs without them).  The
// threads parked at the join would find the others' value in the cell.
//
// One refinement keeps the guarded loops real kernels are made of
// (`if (id < n) for (t ...)`).  A slot declared inside a region, with every
// reference inside the Decl's scope, belongs to the threads that entered
// the region together, and the Decl rewrites it on each entry: it is a batch
// scalar if its writes sit directly in the Decl's region, not in a deeper
// one.  Nothing such a slot holds can differ between two iterations of a
// loop threads leave early (a value carried round the loop is written in the
// loop and declared outside it), so threads of different iterations that
// meet after a while loop's continue still agree on it.
//
// A thread-variant early return is harmless (a returned thread reads
// nothing again).  A barrier under thread-variant control is not: the
// threads that skipped it run on while the others wait, so a kernel with one
// gets no batch scalars at all.
func (c *compiler) classify() {
	c.slots = make([]slotInfo, c.k.NumSlots)
	for c.dirty = true; c.dirty; {
		c.dirty = false
		c.rgn, c.nextRgn = topRegion, topRegion
		for i := range c.slots {
			c.slots[i].decl, c.slots[i].open = 0, false
		}
		c.classBlock(c.k.Body)
	}
}

func (c *compiler) newRegion() int32 {
	c.nextRgn++
	return c.nextRgn
}

// demote makes a slot per-lane.
func (c *compiler) demote(sl *slotInfo) {
	if !forceUniform {
		sl.cls = clsRow
		c.dirty = true
	}
}

// slotRef notes a reference to a slot and returns the slot's class.  A
// reference outside the scope of the slot's Decl (a parameter, hand-built IR
// without a Decl) means the value outlives any region instance, so only
// top-level writes can keep it a scalar.
func (c *compiler) slotRef(slot int) class {
	sl := &c.slots[slot]
	if !sl.open && !sl.loose {
		sl.loose = true
		if sl.cls == clsScalar && sl.decl > topRegion {
			c.demote(sl)
		}
	}
	return sl.cls
}

// slotWrite notes a write of a value of class v.
func (c *compiler) slotWrite(slot int, v class) {
	sl := &c.slots[slot]
	if sl.cls == clsRow {
		return
	}
	home := int32(topRegion)
	if !sl.loose && sl.decl != 0 {
		home = sl.decl
	}
	sl.cls = clsScalar
	if v == clsRow || c.rgn != home || c.noScalars {
		c.demote(sl)
	}
}

func (c *compiler) classBlock(b kir.Block) {
	for _, s := range b {
		c.classStmt(s)
	}
	for _, s := range b {
		if d, ok := s.(*kir.Decl); ok {
			c.slots[d.Slot].open = false
		}
	}
}

func (c *compiler) classStmt(s kir.Stmt) {
	switch s := s.(type) {
	case *kir.Decl:
		v := clsConst
		if s.Init != nil {
			v = c.classExpr(s.Init)
		}
		if sl := &c.slots[s.Slot]; sl.decl == 0 {
			sl.decl, sl.open = c.rgn, true
		}
		c.slotWrite(s.Slot, v)
	case *kir.Assign:
		v := c.classExpr(s.Value)
		c.slotRef(s.Slot)
		c.slotWrite(s.Slot, v)
	case *kir.Store:
		c.classExpr(s.Index)
		c.classExpr(s.Value)
	case *kir.AtomicRMW:
		c.classExpr(s.Index)
		c.classExpr(s.Value)
	case *kir.If:
		variant := c.classExpr(s.Cond) == clsRow
		outer := c.rgn
		if variant {
			c.rgn = c.newRegion()
		}
		c.classBlock(s.Then)
		if variant {
			c.rgn = c.newRegion()
		}
		c.classBlock(s.Else)
		c.rgn = outer
	case *kir.For:
		if s.Init != nil {
			c.classStmt(s.Init)
		}
		c.classLoop(s, s.Cond, s.Body, s.Post)
		if d, ok := s.Init.(*kir.Decl); ok {
			c.slots[d.Slot].open = false
		}
	case *kir.While:
		c.classLoop(s, s.Cond, s.Body, nil)
	case *kir.Sync:
		if c.rgn != topRegion && !c.noScalars {
			c.noScalars, c.dirty = true, true
		}
	case *kir.BreakStmt, *kir.ContinueStmt:
		// Some threads leave the innermost loop here and some stay: from the
		// next pass on the whole loop is a region.
		if c.loop != nil && c.rgn != c.loopRgn && !slices.Contains(c.varLoops, c.loop) {
			c.varLoops = append(c.varLoops, c.loop)
			c.dirty = true
		}
	}
}

// classLoop walks one loop.  The condition, body and post statement form a
// region of their own when threads leave the loop at different times.
func (c *compiler) classLoop(s kir.Stmt, cond kir.Expr, body kir.Block, post kir.Stmt) {
	variant := c.classExpr(cond) == clsRow || slices.Contains(c.varLoops, s)
	outer, outerLoop, outerLoopRgn := c.rgn, c.loop, c.loopRgn
	if variant {
		c.rgn = c.newRegion()
	}
	c.loop, c.loopRgn = s, c.rgn
	c.classBlock(body)
	if post != nil {
		c.classStmt(post)
	}
	c.rgn, c.loop, c.loopRgn = outer, outerLoop, outerLoopRgn
}

// classExpr returns the class code generation will give e's value (clsRow or
// not is all the classifier needs) and notes the slot references in it.
func (c *compiler) classExpr(e kir.Expr) class {
	switch e := e.(type) {
	case *kir.VarRef:
		return c.slotRef(e.Slot)
	case *kir.BuiltinRef:
		if e.B == kir.ThreadIdx {
			return clsRow
		}
	case *kir.Binary:
		return max(c.classExpr(e.L), c.classExpr(e.R))
	case *kir.Unary:
		return c.classExpr(e.X)
	case *kir.Load:
		// Lanes in lockstep read one address in one instruction: a uniform
		// index loads a uniform value.
		return c.classExpr(e.Index)
	case *kir.Call:
		cl := clsConst
		for _, a := range e.Args {
			cl = max(cl, c.classExpr(a))
		}
		return cl
	case *kir.Cast:
		return c.classExpr(e.X)
	case *kir.Select:
		return max(c.classExpr(e.Cond), c.classExpr(e.A), c.classExpr(e.B))
	}
	return clsConst
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
		i, f, cl := c.zeroI, c.zeroF, clsConst
		if s.Init != nil {
			i, f, cl = c.compileExpr(s.Init)
		}
		c.movPair(c.slotI(s.Slot), c.slotF(s.Slot), i, f, cl, c.slots[s.Slot].cls)
	case *kir.Assign:
		i, f, cl := c.compileExpr(s.Value)
		c.movPair(c.slotI(s.Slot), c.slotF(s.Slot), i, f, cl, c.slots[s.Slot].cls)
	case *kir.Store:
		// Stores, like atomics, stay per-lane instructions: every operand
		// becomes a full row first.
		idx, ci := c.compileI(s.Index)
		if s.Mem.Space == kir.Shared {
			vi, vf, cv := c.compileExpr(s.Value)
			c.emit(instr{op: opStS, a: c.row(idx, ci, false, opStS), d: c.row(vi, cv, false, opStS),
				b: c.row(vf, cv, true, opStS), imm: int32(c.arrID(s.Mem.Name))})
			return
		}
		prm := uint16(s.Mem.Param)
		switch c.k.Params[s.Mem.Param].Elem {
		case kir.F32:
			vf, cv := c.compileF(s.Value)
			c.emit(instr{op: opStGF, d: c.row(vf, cv, true, opStGF), a: c.row(idx, ci, false, opStGF), b: prm})
		case kir.I32:
			vi, cv := c.compileI(s.Value)
			c.emit(instr{op: opStGI, d: c.row(vi, cv, false, opStGI), a: c.row(idx, ci, false, opStGI), b: prm})
		case kir.U8:
			vi, cv := c.compileI(s.Value)
			c.emit(instr{op: opStGU8, d: c.row(vi, cv, false, opStGU8), a: c.row(idx, ci, false, opStGU8), b: prm})
		default:
			c.fail("vm: kernel %s: store to %s parameter %s", c.k.Name,
				c.k.Params[s.Mem.Param].Elem, s.Mem.Name)
		}
	case *kir.AtomicRMW:
		idx, ci := c.compileI(s.Index)
		vi, vf, cv := c.compileExpr(s.Value)
		var o op
		if s.Mem.Space == kir.Shared {
			o = opAtSAdd
			if s.Op == kir.AtomicMax {
				o = opAtSMax
			}
			c.emit(instr{op: o, a: c.row(idx, ci, false, o), d: c.row(vi, cv, false, o),
				b: c.row(vf, cv, true, o), imm: int32(c.arrID(s.Mem.Name))})
			return
		}
		o = opAtGAdd
		if s.Op == kir.AtomicMax {
			o = opAtGMax
		}
		c.emit(instr{op: o, a: c.row(idx, ci, false, o), d: c.row(vi, cv, false, o),
			b: c.row(vf, cv, true, o), imm: int32(s.Mem.Param)})
	case *kir.If:
		jz, _ := c.condJumpFalse(s.Cond)
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
		jz, _ := c.condJumpFalse(s.Cond)
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
		jz, _ := c.condJumpFalse(s.Cond)
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
func (c *compiler) condJumpFalse(cond kir.Expr) (int, class) {
	if cond == nil {
		c.emit(instr{op: opErr, imm: c.errIdx("vm: unknown expression <nil>")})
		return c.emit(instr{op: opJzI, a: c.zeroI}), clsConst // unreachable, patchable
	}
	return c.truthJump(cond, false)
}

// --- expression lowering ---

// compileI compiles e and returns the register holding the I field of its
// interp.Value result (the zero constant when the expression computes into
// the float field — the interpreter's inactive-field-is-zero semantics),
// with the value's class.
func (c *compiler) compileI(e kir.Expr) (uint16, class) {
	i, _, cl := c.compileExpr(e)
	return i, cl
}

// compileF is the float-field counterpart of compileI.
func (c *compiler) compileF(e kir.Expr) (uint16, class) {
	_, f, cl := c.compileExpr(e)
	return f, cl
}

func (c *compiler) newT(float bool) uint16 {
	if float {
		return c.newTF()
	}
	return c.newTI()
}

// row returns a register a per-lane instruction can read in every lane: reg
// itself, unless it holds a batch scalar, which is first broadcast into a
// fresh temporary — the fallback that is correct for every consumer.  (The
// zero constant standing in for a value's inactive field is a full row
// whatever the value's class.)  The broadcast's imm names the consumer for
// the profiler.
func (c *compiler) row(reg uint16, cl class, float bool, consumer op) uint16 {
	mov, zero := opMovI, c.zeroI
	if float {
		mov, zero = opMovF, c.zeroF
	}
	if cl != clsScalar || reg == zero {
		return reg
	}
	t := c.newT(float)
	c.emit(instr{op: mov, u: uA, d: t, a: reg, imm: int32(consumer)})
	return t
}

// movPair writes a value's two fields to a slot's or a two-path
// temporary's registers.  A batch-scalar destination makes the moves
// scalar-executed (its every write has a uniform source: classify); a
// per-lane destination takes a batch scalar as a broadcast.
func (c *compiler) movPair(di, df, i, f uint16, src, dst class) {
	var u uint8
	switch {
	case dst != clsRow:
		u = uExec
	case src == clsScalar:
		u = uA
	}
	c.emit(instr{op: opMovI, u: u, d: di, a: i})
	c.emit(instr{op: opMovF, u: u, d: df, a: f})
}

// scalarForms lists, per opcode, the operands a per-lane instruction may
// read from a lane-0 cell (lanes.go has a loop for each).  They are the
// forms the suite's inner loops are made of; everything else gets its batch
// scalars through row.  The fused opcodes' forms are fusePair's.
var scalarForms = [numOps]uint8{
	opAddI: uB, opMulI: uB, opSubI: uA | uB,
	opLtI: uB, opLeI: uB, opGtI: uB, opGeI: uB, opEqI: uB, opNeI: uB,
	opAddF: uA | uB, opSubF: uA | uB, opMulF: uA | uB,
	opLtF: uB, opLeF: uB, opGtF: uB, opGeF: uB, opEqF: uB, opNeF: uB,
}

// mirror maps an opcode to the one computing the same value with its
// operands exchanged, where that is exact: commutative integer arithmetic
// and every comparison.  binary uses it to keep a lone uniform operand in b,
// halving the forms above.  (Float add and mul keep their order: which NaN
// payload survives depends on it.)
var mirror = [numOps]op{
	opAddI: opAddI, opMulI: opMulI,
	opLtI: opGtI, opLeI: opGeI, opGtI: opLtI, opGeI: opLeI, opEqI: opEqI, opNeI: opNeI,
	opLtF: opGtF, opLeF: opGeF, opGtF: opLtF, opGeF: opLeF, opEqF: opEqF, opNeF: opNeF,
}

// unary completes and emits a one-operand computing instruction (in carries
// op, a, and whatever b/imm the opcode needs) into a fresh temporary.  A
// uniform operand makes it scalar-executed and its result a batch scalar.
func (c *compiler) unary(in instr, float bool, ca class) (uint16, class) {
	cl := clsRow
	if ca != clsRow {
		in.u, cl = uExec, clsScalar
	}
	in.d = c.newT(float)
	c.emit(in)
	return in.d, cl
}

// binary completes and emits a two-operand computing instruction into d.
// srcFloat names the operands' register file.  With both operands uniform it
// is scalar-executed; a lone uniform operand is flagged where the opcode
// has the scalar-operand form and broadcast where it has not.
func (c *compiler) binary(in instr, srcFloat bool, ca, cb class) class {
	switch {
	case ca != clsRow && cb != clsRow:
		in.u = uExec
		c.emit(in)
		return clsScalar
	case ca != clsRow:
		if m := mirror[in.op]; m != opNop {
			in.op, in.a, in.b, ca, cb = m, in.b, in.a, cb, ca
		}
	}
	forms := scalarForms[in.op]
	switch {
	case ca != clsRow && forms&uA != 0:
		in.u = uA
	case ca != clsRow:
		in.a = c.row(in.a, ca, srcFloat, in.op)
	case cb != clsRow && forms&uB != 0:
		in.u = uB
	case cb != clsRow:
		in.b = c.row(in.b, cb, srcFloat, in.op)
	}
	c.emit(in)
	return clsRow
}

// compileExpr emits code evaluating e exactly once and returns the register
// pair mirroring the interp.Value it produces, with its class.  Pass-through
// nodes (VarRef, identity casts, Select) forward both fields; computing
// nodes return their result register plus the zero constant for the
// inactive field.
func (c *compiler) compileExpr(e kir.Expr) (uint16, uint16, class) {
	if c.err != nil {
		return c.zeroI, c.zeroF, clsConst
	}
	switch e := e.(type) {
	case *kir.IntLit:
		return c.internInt(e.Val), c.zeroF, clsConst
	case *kir.FloatLit:
		return c.zeroI, c.internFloat(float64(float32(e.Val))), clsConst
	case *kir.VarRef:
		return c.slotI(e.Slot), c.slotF(e.Slot), c.slots[e.Slot].cls
	case *kir.BuiltinRef:
		cl := clsConst
		if e.B == kir.ThreadIdx {
			cl = clsRow
		}
		return uint16(e.B)*2 + uint16(e.Axis), c.zeroF, cl
	case *kir.Binary:
		return c.compileBinary(e)
	case *kir.Unary:
		if e.Op == kir.Neg {
			if e.T == kir.F32 {
				x, cx := c.compileF(e.X)
				d, cl := c.unary(instr{op: opNegF, a: x}, true, cx)
				return c.zeroI, d, cl
			}
			x, cx := c.compileI(e.X)
			d, cl := c.unary(instr{op: opNegI, a: x}, false, cx)
			return d, c.zeroF, cl
		}
		// Not tests the operand's own truthiness.
		if e.X.Type() == kir.F32 {
			x, cx := c.compileF(e.X)
			d, cl := c.unary(instr{op: opNotF, a: x}, false, cx)
			return d, c.zeroF, cl
		}
		x, cx := c.compileI(e.X)
		d, cl := c.unary(instr{op: opNotI, a: x}, false, cx)
		return d, c.zeroF, cl
	case *kir.Load:
		idx, ci := c.compileI(e.Index)
		if e.Mem.Space == kir.Shared {
			// Shared cells are full Value pairs: load both fields (the
			// byte charge is applied once, on the first load).
			id := c.arrID(e.Mem.Name)
			di, cl := c.unary(instr{op: opLdSI, a: idx, b: id, imm: int32(e.T.Size())}, false, ci)
			df, _ := c.unary(instr{op: opLdSF, a: idx, b: id}, true, ci)
			return di, df, cl
		}
		switch e.T {
		case kir.F32:
			d, cl := c.unary(instr{op: opLdGF, a: idx, b: uint16(e.Mem.Param)}, true, ci)
			return c.zeroI, d, cl
		case kir.I32:
			d, cl := c.unary(instr{op: opLdGI, a: idx, b: uint16(e.Mem.Param)}, false, ci)
			return d, c.zeroF, cl
		case kir.U8:
			d, cl := c.unary(instr{op: opLdGU8, a: idx, b: uint16(e.Mem.Param)}, false, ci)
			return d, c.zeroF, cl
		default:
			c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: bad load type %s", e.T))})
			return c.zeroI, c.zeroF, clsConst
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
				x, cx := c.compileI(e.X)
				d, cl := c.unary(instr{op: opCastIF, a: x}, true, cx)
				return c.zeroI, d, cl
			}
			return c.compileExpr(e.X)
		case to.IsInteger():
			if from == kir.F32 {
				x, cx := c.compileF(e.X)
				d, cl := c.unary(instr{op: opCastFI, a: x}, false, cx)
				return d, c.zeroF, cl
			}
			if to == kir.U8 {
				x, cx := c.compileI(e.X)
				d, cl := c.unary(instr{op: opCastU8, a: x}, false, cx)
				return d, c.zeroF, cl
			}
			return c.compileExpr(e.X)
		default:
			// Casts to Bool are identity in the interpreter.
			return c.compileExpr(e.X)
		}
	case *kir.Select:
		// The result temporaries are written on both paths and read at
		// their join, so both writes take one class: a batch scalar only
		// when the condition and both arms are uniform.  The first arm's
		// moves are emitted before the second arm's class is known and
		// patched afterwards.
		di, df := c.newTI(), c.newTF()
		jz, cc := c.condJumpFalse(e.Cond)
		ai, af, ca := c.compileExpr(e.A)
		movA := len(c.code)
		c.movPair(di, df, ai, af, ca, clsRow)
		jend := c.emit(instr{op: opJmp})
		c.patch(jz, c.here())
		bi, bf, cb := c.compileExpr(e.B)
		cl := clsRow
		if max(cc, ca, cb) != clsRow {
			cl = clsScalar
			c.code[movA].u, c.code[movA+1].u = uExec, uExec
		}
		c.movPair(di, df, bi, bf, cb, cl)
		c.patch(jend, c.here())
		return di, df, cl
	default:
		c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: unknown expression %T", e))})
		return c.zeroI, c.zeroF, clsConst
	}
}

// truthJump evaluates e and emits a conditional jump taken when e's
// truthiness equals whenTrue, returning the patch site and e's class.  A
// uniform condition makes the jump scalar-executed: the whole active set
// goes one way.
func (c *compiler) truthJump(e kir.Expr, whenTrue bool) (int, class) {
	i, f, cl := c.compileExpr(e)
	var u uint8
	if cl != clsRow {
		u = uExec
	}
	if e.Type() == kir.F32 {
		if whenTrue {
			return c.emit(instr{op: opJnzF, u: u, a: f}), cl
		}
		return c.emit(instr{op: opJzF, u: u, a: f}), cl
	}
	if whenTrue {
		return c.emit(instr{op: opJnzI, u: u, a: i}), cl
	}
	return c.emit(instr{op: opJzI, u: u, a: i}), cl
}

var cmpIOps = [...]op{opLtI, opLeI, opGtI, opGeI, opEqI, opNeI}
var cmpFOps = [...]op{opLtF, opLeF, opGtF, opGeF, opEqF, opNeF}

func (c *compiler) compileBinary(e *kir.Binary) (uint16, uint16, class) {
	if e.Op == kir.LAnd || e.Op == kir.LOr {
		// Short-circuit: the right operand is not evaluated (no work, no
		// errors) when the left decides the result.  d is written on two
		// paths, so both writes take one class (see Select).
		d := c.newTI()
		and := e.Op == kir.LAnd
		jl, cl := c.truthJump(e.L, !and)
		jr, cr := c.truthJump(e.R, !and)
		cd := clsRow
		if max(cl, cr) != clsRow {
			cd = clsScalar
		}
		through, short := c.oneI, c.zeroI // && falls through to 1, || to 0
		if !and {
			through, short = c.zeroI, c.oneI
		}
		c.movI(d, through, cd)
		jend := c.emit(instr{op: opJmp})
		c.patch(jl, c.here())
		c.patch(jr, c.here())
		c.movI(d, short, cd)
		c.patch(jend, c.here())
		return d, c.zeroF, cd
	}
	// The interpreter picks float semantics when either operand is F32,
	// regardless of the node's annotated result type.
	isF := e.L.Type() == kir.F32 || e.R.Type() == kir.F32
	if e.Op.IsComparison() {
		d := c.newTI()
		if isF {
			l, cl := c.compileF(e.L)
			r, cr := c.compileF(e.R)
			return d, c.zeroF, c.binary(instr{op: cmpFOps[e.Op-kir.Lt], d: d, a: l, b: r}, true, cl, cr)
		}
		l, cl := c.compileI(e.L)
		r, cr := c.compileI(e.R)
		return d, c.zeroF, c.binary(instr{op: cmpIOps[e.Op-kir.Lt], d: d, a: l, b: r}, false, cl, cr)
	}
	if isF {
		l, cl := c.compileF(e.L)
		r, cr := c.compileF(e.R)
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
			return c.zeroI, c.zeroF, clsConst
		}
		d := c.newTF()
		return c.zeroI, d, c.binary(instr{op: o, d: d, a: l, b: r}, true, cl, cr)
	}
	l, cl := c.compileI(e.L)
	r, cr := c.compileI(e.R)
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
		return c.zeroI, c.zeroF, clsConst
	}
	d := c.newTI()
	return d, c.zeroF, c.binary(instr{op: o, d: d, a: l, b: r}, false, cl, cr)
}

// movI emits one int move from a constant register into a two-path
// temporary of class dst.
func (c *compiler) movI(d, a uint16, dst class) {
	var u uint8
	if dst != clsRow {
		u = uExec
	}
	c.emit(instr{op: opMovI, u: u, d: d, a: a})
}

var intrinsicOps = [...]op{
	kir.Sqrt: opSqrt, kir.Exp: opExp, kir.Log: opLog, kir.Fabs: opFabs,
	kir.Fmin: opFmin, kir.Fmax: opFmax, kir.Pow: opPow, kir.Sin: opSin,
	kir.Cos: opCos, kir.Tanh: opTanh, kir.MinI: opMinI, kir.MaxI: opMaxI,
	kir.AbsI: opAbsI,
}

func (c *compiler) compileCall(e *kir.Call) (uint16, uint16, class) {
	if int(e.Fn) >= len(intrinsicOps) {
		c.emit(instr{op: opErr, imm: c.errIdx(fmt.Sprintf("vm: unknown intrinsic %s", e.Fn))})
		return c.zeroI, c.zeroF, clsConst
	}
	isInt := e.Fn == kir.MinI || e.Fn == kir.MaxI || e.Fn == kir.AbsI
	// Arguments are fully evaluated left to right before the intrinsic
	// applies; integer intrinsics read the I field, float ones the F field.
	var regs [2]uint16
	cls := [2]class{clsConst, clsConst}
	for n, a := range e.Args {
		i, f, cl := c.compileExpr(a)
		if n < len(regs) {
			regs[n], cls[n] = f, cl
			if isInt {
				regs[n] = i
			}
		}
	}
	in := instr{op: intrinsicOps[e.Fn], a: regs[0], b: regs[1], imm: int32(interp.IntrinsicFlops(e.Fn))}
	cl := clsScalar
	if max(cls[0], cls[1]) == clsRow {
		cl = clsRow
		in.a = c.row(regs[0], cls[0], !isInt, in.op)
		in.b = c.row(regs[1], cls[1], !isInt, in.op)
	} else {
		in.u = uExec
	}
	in.d = c.newT(!isInt)
	c.emit(in)
	if isInt {
		return in.d, c.zeroF, cl
	}
	return c.zeroI, in.d, cl
}
