package kir

import (
	"fmt"
	"strings"
)

// String renders the kernel in a C-like syntax for diagnostics and golden
// tests.
func (k *Kernel) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "__global__ void %s(", k.Name)
	for i, p := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(") {\n")
	for _, sh := range k.Shared {
		fmt.Fprintf(&b, "  __shared__ %s %s[%d];\n", sh.Elem, sh.Name, sh.Len)
	}
	printBlock(&b, k.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func printBlock(b *strings.Builder, blk Block, depth int) {
	for _, s := range blk {
		printStmt(b, s, depth)
	}
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	b.WriteString(stmtHead(s))
	switch s := s.(type) {
	case *If:
		b.WriteString(" {\n")
		printBlock(b, s.Then, depth+1)
		indent(b, depth)
		if len(s.Else) > 0 {
			b.WriteString("} else {\n")
			printBlock(b, s.Else, depth+1)
			indent(b, depth)
		}
		b.WriteString("}\n")
	case *For:
		b.WriteString(" {\n")
		printBlock(b, s.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	case *While:
		b.WriteString(" {\n")
		printBlock(b, s.Body, depth+1)
		indent(b, depth)
		b.WriteString("}\n")
	default:
		b.WriteString("\n")
	}
}

// stmtHead renders the header (non-body) portion of a statement.
func stmtHead(s Stmt) string {
	switch s := s.(type) {
	case *Decl:
		if s.Init != nil {
			return fmt.Sprintf("%s %s = %s;", s.T, s.Name, exprString(s.Init))
		}
		return fmt.Sprintf("%s %s;", s.T, s.Name)
	case *Assign:
		return fmt.Sprintf("%s = %s;", s.Name, exprString(s.Value))
	case *Store:
		return fmt.Sprintf("%s[%s] = %s;", s.Mem.Name, exprString(s.Index), exprString(s.Value))
	case *AtomicRMW:
		return fmt.Sprintf("%s(&%s[%s], %s);", s.Op, s.Mem.Name, exprString(s.Index), exprString(s.Value))
	case *If:
		return fmt.Sprintf("if (%s)", exprString(s.Cond))
	case *For:
		init, post := "", ""
		if s.Init != nil {
			init = strings.TrimSuffix(stmtHead(s.Init), ";")
		}
		if s.Post != nil {
			post = strings.TrimSuffix(stmtHead(s.Post), ";")
		}
		return fmt.Sprintf("for (%s; %s; %s)", init, exprString(s.Cond), post)
	case *While:
		return fmt.Sprintf("while (%s)", exprString(s.Cond))
	case *Sync:
		return "__syncthreads();"
	case *Return:
		return "return;"
	case *BreakStmt:
		return "break;"
	case *ContinueStmt:
		return "continue;"
	}
	return "?;"
}
