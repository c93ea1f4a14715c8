// Package lp implements a small dense two-phase primal simplex solver
// for linear programs in the form
//
//	minimize   c·x
//	subject to a_i·x (≤ | = | ≥) b_i   for each constraint i
//	           x ≥ 0
//
// It exists to solve the tiny LPs the MPC join theory needs — fractional
// edge packings and covers of query hypergraphs (a handful of variables
// and constraints) and the HyperCube share-optimization LP — so
// robustness on small problems matters and large-scale performance does
// not. Bland's anti-cycling rule keeps termination guaranteed.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota // a·x ≤ b
	GE           // a·x ≥ b
	EQ           // a·x = b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: infeasible")
	ErrUnbounded  = errors.New("lp: unbounded")
)

type constraint struct {
	coefs []float64
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; create with NewMinimize or NewMaximize.
type Problem struct {
	c        []float64 // objective for minimization (negated if maximizing)
	maximize bool
	cons     []constraint
}

// NewMinimize creates a minimization problem with the given objective
// coefficients; the number of variables is len(c).
func NewMinimize(c []float64) *Problem {
	return &Problem{c: append([]float64(nil), c...)}
}

// NewMaximize creates a maximization problem.
func NewMaximize(c []float64) *Problem {
	p := NewMinimize(c)
	p.maximize = true
	return p
}

// AddConstraint appends the constraint coefs·x (op) rhs. The coefficient
// slice must have exactly one entry per decision variable.
func (p *Problem) AddConstraint(coefs []float64, op Op, rhs float64) {
	if len(coefs) != len(p.c) {
		panic(fmt.Sprintf("lp: constraint has %d coefficients, want %d", len(coefs), len(p.c)))
	}
	p.cons = append(p.cons, constraint{coefs: append([]float64(nil), coefs...), op: op, rhs: rhs})
}

// Solution is an optimal LP solution.
type Solution struct {
	X         []float64 // optimal variable assignment
	Objective float64   // optimal objective value (in the user's sense)
	// Duals holds one dual value per constraint, in the user's sense
	// (maximize/≤ and minimize/≥ duals are ≥ 0). Duals of equality
	// constraints are reported as NaN: the two-phase solver drops their
	// artificial columns before phase 2, so their multipliers are not
	// recoverable from the final tableau.
	Duals []float64
}

const eps = 1e-9

// Solve runs two-phase simplex and returns an optimal solution, or
// ErrInfeasible / ErrUnbounded.
func (p *Problem) Solve() (*Solution, error) {
	n := len(p.c)
	m := len(p.cons)

	// Column layout: [0,n) decision vars, then one slack/surplus column
	// per inequality, then one artificial column per GE/EQ row (and per
	// LE row with negative rhs after normalization... normalization
	// below guarantees rhs ≥ 0 first, so artificials are only needed for
	// GE and EQ rows).
	type rowSpec struct {
		coefs []float64
		op    Op
		rhs   float64
	}
	rows := make([]rowSpec, m)
	for i, con := range p.cons {
		coefs := append([]float64(nil), con.coefs...)
		op, rhs := con.op, con.rhs
		if rhs < 0 {
			for j := range coefs {
				coefs[j] = -coefs[j]
			}
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[i] = rowSpec{coefs: coefs, op: op, rhs: rhs}
	}

	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.op != EQ {
			nSlack++
		}
		if r.op != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	// Tableau: m rows × (total+1) columns, last column is rhs.
	t := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := n + nSlack
	artRows := []int{}
	// slackOf[i] records constraint i's slack/surplus column (−1 for
	// EQ), and flip[i] whether normalization negated the row; both feed
	// dual recovery.
	slackOf := make([]int, m)
	flip := make([]bool, m)
	for i, con := range p.cons {
		flip[i] = con.rhs < 0
	}
	for i, r := range rows {
		row := make([]float64, total+1)
		copy(row, r.coefs)
		row[total] = r.rhs
		slackOf[i] = -1
		switch r.op {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackOf[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackOf[i] = slackCol
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
			artRows = append(artRows, i)
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
			artRows = append(artRows, i)
		}
		t[i] = row
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		obj := make([]float64, total+1)
		for j := n + nSlack; j < total; j++ {
			obj[j] = 1
		}
		// Reduce objective over basic artificial rows.
		for _, i := range artRows {
			for j := 0; j <= total; j++ {
				obj[j] -= t[i][j]
			}
		}
		if err := simplexIterate(t, obj, basis, total); err != nil {
			return nil, err
		}
		if -obj[total] > 1e-6 {
			return nil, ErrInfeasible
		}
		// Drive any remaining artificial variables out of the basis.
		for i := range basis {
			if basis[i] >= n+nSlack {
				pivoted := false
				for j := 0; j < n+nSlack; j++ {
					if math.Abs(t[i][j]) > eps {
						pivot(t, basis, i, j, total)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Row is all zeros among real variables: redundant
					// constraint; it stays with the artificial at value 0.
					_ = pivoted
				}
			}
		}
	}

	// Phase 2: minimize c over decision variables (artificial columns
	// are forbidden: force them out by giving them +inf-ish cost, i.e.
	// simply never pivot on them — we zero their columns instead).
	for i := range t {
		for j := n + nSlack; j < total; j++ {
			t[i][j] = 0
		}
	}
	obj := make([]float64, total+1)
	copy(obj, p.c)
	if p.maximize {
		for j := 0; j < n; j++ {
			obj[j] = -obj[j]
		}
	}
	// Reduce objective over current basis.
	for i, b := range basis {
		if b < total && math.Abs(obj[b]) > eps {
			f := obj[b]
			for j := 0; j <= total; j++ {
				obj[j] -= f * t[i][j]
			}
		}
	}
	if err := simplexIterate(t, obj, basis, n+nSlack); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, b := range basis {
		if b < n {
			x[b] = t[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.c[j] * x[j]
	}
	// Recover duals from the reduced costs of the slack/surplus columns:
	// for the internal minimization, y_i = −rc(slack_i) for a ≤ row and
	// +rc(surplus_i) for a ≥ row; rows normalized by negation flip the
	// sign once more, and a maximize problem flips it again (its duals
	// are those of the negated objective).
	duals := make([]float64, m)
	for i := range rows {
		if slackOf[i] < 0 {
			duals[i] = math.NaN()
			continue
		}
		y := obj[slackOf[i]]
		if rows[i].op == LE {
			y = -y
		}
		if flip[i] {
			y = -y
		}
		if p.maximize {
			y = -y
		}
		duals[i] = y
	}
	return &Solution{X: x, Objective: objVal, Duals: duals}, nil
}

// simplexIterate runs primal simplex on the tableau until optimal,
// pivoting only on columns [0, allowCols). obj is the reduced objective
// row (length total+1 where the last entry is the negated objective
// value). Bland's rule: choose the lowest-index entering column with a
// negative reduced cost and the lowest-index leaving row among ties.
func simplexIterate(t [][]float64, obj []float64, basis []int, allowCols int) error {
	total := len(obj) - 1
	for iter := 0; ; iter++ {
		if iter > 10000 {
			return errors.New("lp: iteration limit exceeded")
		}
		enter := -1
		for j := 0; j < allowCols; j++ {
			if obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		leave := -1
		best := math.Inf(1)
		for i := range t {
			if t[i][enter] > eps {
				ratio := t[i][total] / t[i][enter]
				if ratio < best-eps || (math.Abs(ratio-best) <= eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		pivot(t, basis, leave, enter, total)
		// Update reduced costs.
		f := obj[enter]
		if math.Abs(f) > eps {
			for j := 0; j <= total; j++ {
				obj[j] -= f * t[leave][j]
			}
		}
	}
}

// pivot makes column enter basic in row leave.
func pivot(t [][]float64, basis []int, leave, enter, total int) {
	pr := t[leave]
	pv := pr[enter]
	for j := 0; j <= total; j++ {
		pr[j] /= pv
	}
	for i := range t {
		if i == leave {
			continue
		}
		f := t[i][enter]
		if math.Abs(f) <= eps {
			continue
		}
		for j := 0; j <= total; j++ {
			t[i][j] -= f * pr[j]
		}
	}
	basis[leave] = enter
}
