package framework

import (
	"go/ast"
	"go/token"
)

// A CFG is a conservative per-function control-flow graph built over
// go/ast alone (no SSA): blocks hold the statements and control
// expressions executed on entry to them, in source order, and edges
// over-approximate the possible transfers of control. It is
// branch-aware (if/switch/type-switch/select) and loop-aware
// (for/range, break/continue/goto with labels, fallthrough); a defer
// statement sits, like any other, in the block that registers it.
//
// The graph is deliberately coarse — one bit of precision per
// question, answered by the analyzers themselves — but it is sound
// for the query the suite needs: "does the block this statement is in
// end the function on a failure" (hotpath's cold-branch exemption).
type CFG struct {
	Entry *Block
	Exit  *Block
	// Blocks lists every block, Entry first, Exit second. Blocks
	// created for unreachable continuations (code after return) stay in
	// the list with no predecessors.
	Blocks []*Block
}

// A Block is a straight-line run of statements: control enters at the
// first node and leaves through one of Succs after the last.
type Block struct {
	Index int
	// Nodes holds, in execution order, the statements of the run plus
	// the control expressions (if/switch conditions, range operands,
	// case expressions) evaluated on entry. Nested statements are not
	// duplicated: an if body's statements live in the then-block, not
	// under the IfStmt.
	Nodes []ast.Node
	Succs []*Block
}

// Fails reports whether b itself ends the function on a failure: its
// own trailing return carries a non-nil-literal final result, or its
// last node panics. It does not aggregate over successor paths, so it
// stays meaningful inside loops — a loop body whose function eventually
// forwards an error variable "must fail" on every path, vacuously,
// while Fails still distinguishes the error-construction branch from
// the loop's steady state.
func (b *Block) Fails() bool {
	if len(b.Nodes) == 0 {
		return false
	}
	last := b.Nodes[len(b.Nodes)-1]
	if r, ok := last.(*ast.ReturnStmt); ok {
		return returnsNonNil(r)
	}
	return isPanicNode(last)
}

// NewCFG builds the graph for one function or function-literal body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &builder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.jump(b.cfg.Exit) // falling off the end
	return b.cfg
}

// returnsNonNil reports whether r's final result expression is
// syntactically not the nil literal (so `return err`,
// `return fmt.Errorf(...)` and `return x.log(...)` all count as
// possibly-failing; only `return nil`/`return v, nil` do not).
func returnsNonNil(r *ast.ReturnStmt) bool {
	if len(r.Results) == 0 {
		return false
	}
	last := ast.Unparen(r.Results[len(r.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

func isPanicNode(n ast.Node) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

type builder struct {
	cfg *CFG
	cur *Block
	// frames tracks enclosing breakable/continuable constructs,
	// innermost last.
	frames []frame
	// labels maps label name to its target block, created on demand so
	// forward gotos resolve.
	labels map[string]*Block
	// pendingLabel is the label naming the next loop/switch/select, for
	// labeled break/continue.
	pendingLabel string
	// fallthroughTo is the next case block while building a switch
	// clause body.
	fallthroughTo *Block
}

type frame struct {
	label      string
	isLoop     bool
	breakTo    *Block
	continueTo *Block // nil for switch/select
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) jump(to *Block) {
	for _, s := range b.cur.Succs {
		if s == to {
			return
		}
	}
	b.cur.Succs = append(b.cur.Succs, to)
}

// kill ends the current path: subsequent statements go to a fresh
// block with no predecessors (unreachable continuation).
func (b *builder) kill() {
	b.cur = b.newBlock()
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) labelBlock(name string) *Block {
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock()
		b.labels[name] = blk
	}
	return blk
}

func (b *builder) findBreak(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.breakTo
		}
	}
	return b.cfg.Exit // malformed code; stay total
}

func (b *builder) findContinue(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.isLoop && (label == "" || f.label == label) {
			return f.continueTo
		}
	}
	return b.cfg.Exit
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		then, after := b.newBlock(), b.newBlock()
		b.jump(then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock()
			b.jump(els)
		} else {
			b.jump(after)
		}
		b.cur = then
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.jump(after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head, body, after := b.newBlock(), b.newBlock(), b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.jump(after)
		}
		b.jump(body)
		b.frames = append(b.frames, frame{label: label, isLoop: true, breakTo: after, continueTo: post})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.jump(head)
		}
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head, body, after := b.newBlock(), b.newBlock(), b.newBlock()
		b.jump(head)
		b.cur = head
		b.jump(body)
		b.jump(after)
		b.frames = append(b.frames, frame{label: label, isLoop: true, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, s.Body.List)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, s.Body.List)

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock()
		head := b.cur
		b.frames = append(b.frames, frame{label: label, breakTo: after})
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			if clause.Comm != nil {
				b.stmt(clause.Comm)
			}
			b.stmtList(clause.Body)
			b.jump(after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.LabeledStmt:
		target := b.labelBlock(s.Label.Name)
		b.jump(target)
		b.cur = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			b.jump(b.findBreak(labelName(s)))
			b.kill()
		case token.CONTINUE:
			b.jump(b.findContinue(labelName(s)))
			b.kill()
		case token.GOTO:
			b.jump(b.labelBlock(labelName(s)))
			b.kill()
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.jump(b.fallthroughTo)
			}
			b.kill()
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
		b.kill()

	case *ast.ExprStmt:
		b.add(s)
		if isPanicNode(s) {
			b.jump(b.cfg.Exit)
			b.kill()
		}

	default:
		// Assignments, declarations, defer and go statements, sends,
		// inc/dec, empty statements: straight-line.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch shape: the current
// block branches to every case (and to after, if there is no default),
// each case body jumps to after, and fallthrough jumps to the next
// case body.
func (b *builder) caseClauses(label string, list []ast.Stmt) {
	after := b.newBlock()
	head := b.cur
	blocks := make([]*Block, len(list))
	hasDefault := false
	for i, cc := range list {
		blocks[i] = b.newBlock()
		head.Succs = append(head.Succs, blocks[i])
		if len(cc.(*ast.CaseClause).List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	b.frames = append(b.frames, frame{label: label, breakTo: after})
	savedFT := b.fallthroughTo
	for i, cc := range list {
		clause := cc.(*ast.CaseClause)
		b.cur = blocks[i]
		for _, e := range clause.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(clause.Body)
		b.jump(after)
	}
	b.fallthroughTo = savedFT
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func labelName(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}
