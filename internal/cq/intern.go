package cq

// Interner is the planner-side symbol table: it maps predicate names and
// terms to dense uint32 ids so the search kernels (the containment
// homomorphism search, and anything else that compares terms in an inner
// loop) can work on flat integer arrays instead of strings and
// interface values. It is distinct from the engine's per-Database
// interner — engine ids name constants of one database's stored tuples,
// planner ids name terms of one compiled search — and ids from the two
// tables must never mix (viewplanlint's internmix analyzer enforces the
// boundary for both owner types).
//
// The public AST (Atom, Term, Subst) stays string-based: interned forms
// exist only inside search kernels, which intern their inputs on entry
// and resolve ids back to terms when yielding results. Symbol universes
// there are tiny — a compiled target is at most one query body plus one
// expansion — so the table is backed by flat slices with linear probing:
// at these sizes scanning a handful of entries beats map hashing, and
// compiling a target costs two slice allocations instead of map churn.
//
// An Interner is not safe for concurrent mutation. Compiled search
// structures that may be shared across goroutines (a compiled HomTarget)
// intern everything at compile time and use only the read-only Lookup
// methods afterwards.
type Interner struct {
	preds []string
	terms []Term
}

// NoTerm is the sentinel id meaning "no term": it is never assigned to
// an interned term, so a frame slot holding it is unbound and a lookup
// miss can be propagated as a value that equals no real id.
const NoTerm = ^uint32(0)

// NewInterner creates an empty symbol table.
func NewInterner() *Interner { return &Interner{} }

// Reset empties the table while keeping its backing storage, so pooled
// search structures can recompile without reallocating. All previously
// issued ids are invalidated.
func (in *Interner) Reset() {
	in.preds = in.preds[:0]
	in.terms = in.terms[:0]
}

// PredID interns a predicate name, assigning the next dense id on first
// sight.
func (in *Interner) PredID(name string) uint32 {
	for i, p := range in.preds {
		if p == name {
			return uint32(i)
		}
	}
	in.preds = append(in.preds, name)
	return uint32(len(in.preds) - 1)
}

// LookupPred returns name's id without interning it; ok is false when
// the predicate has never been seen.
func (in *Interner) LookupPred(name string) (uint32, bool) {
	for i, p := range in.preds {
		if p == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// PredName resolves a predicate id produced by this interner.
func (in *Interner) PredName(id uint32) string { return in.preds[id] }

// NumPreds returns the number of interned predicates.
func (in *Interner) NumPreds() int { return len(in.preds) }

// ID interns a term, assigning the next dense id on first sight.
func (in *Interner) ID(t Term) uint32 {
	for i, have := range in.terms {
		if have == t {
			return uint32(i)
		}
	}
	in.terms = append(in.terms, t)
	return uint32(len(in.terms) - 1)
}

// Lookup returns t's id without interning it; ok is false when t has
// never been seen (no compiled atom can contain it).
func (in *Interner) Lookup(t Term) (uint32, bool) {
	for i, have := range in.terms {
		if have == t {
			return uint32(i), true
		}
	}
	return 0, false
}

// Value resolves a term id produced by this interner.
func (in *Interner) Value(id uint32) Term { return in.terms[id] }

// NumTerms returns the number of interned terms.
func (in *Interner) NumTerms() int { return len(in.terms) }

// IAtom is the interned form of an Atom: a predicate id and argument
// term ids, all private to the Interner that produced them. Search
// kernels compare IAtoms by integer equality; nothing outside a kernel
// should hold one.
type IAtom struct {
	Pred uint32
	Args []uint32
}

// InternAtom interns every part of a.
func (in *Interner) InternAtom(a Atom) IAtom {
	args := make([]uint32, len(a.Args))
	for i, t := range a.Args {
		args[i] = in.ID(t)
	}
	return IAtom{Pred: in.PredID(a.Pred), Args: args}
}

// AtomValue resolves an interned atom back to the AST form.
func (in *Interner) AtomValue(ia IAtom) Atom {
	args := make([]Term, len(ia.Args))
	for i, id := range ia.Args {
		args[i] = in.Value(id)
	}
	return Atom{Pred: in.PredName(ia.Pred), Args: args}
}

// ISubst is the interned form of a substitution, used inside the
// homomorphism kernel: a flat frame over the compiled source's dense
// variable indexes, each slot holding the interned id of the variable's
// image (or NoTerm while unbound). An ISubst handed to a yield callback
// is only valid for the duration of the call — the kernel reuses the
// frame — so callers that need the bindings afterwards materialize them
// with Subst or read them out immediately.
type ISubst struct {
	in    *Interner
	vars  []Var
	frame []uint32
}

// MakeISubst binds a frame to its variable table and interner. The
// kernel owns construction; it is exported for the kernel package and
// tests.
func MakeISubst(in *Interner, vars []Var, frame []uint32) ISubst {
	return ISubst{in: in, vars: vars, frame: frame}
}

// Len returns the number of frame slots (bound or not).
func (s ISubst) Len() int { return len(s.vars) }

// Term returns v's image, or (nil, false) when v is not a frame
// variable or is unbound. The variable table is tiny, so lookup is a
// linear scan.
func (s ISubst) Term(v Var) (Term, bool) {
	for i, have := range s.vars {
		if have == v {
			if s.frame[i] == NoTerm {
				return nil, false
			}
			return s.in.Value(s.frame[i]), true
		}
	}
	return nil, false
}

// Apply returns t's image under the frame: the bound image for frame
// variables, t itself for constants and unbound or foreign variables.
func (s ISubst) Apply(t Term) Term {
	if v, ok := t.(Var); ok {
		if img, bound := s.Term(v); bound {
			return img
		}
	}
	return t
}

// Subst materializes the bound frame slots as a map-backed Subst.
func (s ISubst) Subst() Subst {
	out := make(Subst, len(s.vars))
	for i, v := range s.vars {
		if s.frame[i] != NoTerm {
			out[v] = s.in.Value(s.frame[i])
		}
	}
	return out
}
