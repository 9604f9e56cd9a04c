// Package linreg implements multiple linear regression by least squares.
//
// It serves two roles in this repository, mirroring its two roles in the
// paper:
//
//   - as the baseline predictor the paper compares M5P against in Tables 3
//     and 4 ("Lin. Reg" columns), and
//   - as the leaf model inside M5P model trees (internal/m5p), including the
//     greedy attribute-elimination step described by Wang & Witten for M5.
//
// The solver uses a QR decomposition by Householder reflections, which is
// numerically stable for the strongly collinear derived features of Table 2
// (many of them are ratios of each other). When the design matrix is rank
// deficient even for QR, a small ridge penalty is applied instead of failing,
// because a usable, slightly-biased model is always preferable to no model in
// an on-line prediction loop.
//
// The QR works on the design held column by column and advances one
// Householder step at a time. Step k reads only design columns 0..k, so
// attribute elimination shares QR prefixes: the trial that drops the
// attribute at design column d+1 resumes from the current column set's
// state after steps 0..d and copies only the columns after the dropped one,
// instead of factorising from scratch. A trial whose QR fails falls back to
// ridge exactly where a from-scratch QR would, on normal equations cut from
// the current set's (each entry is one column dot product, so the cut is
// bit-identical to computing them afresh). The first round's base
// factorisation doubles as the full model's.
//
// The QR's cost is serial floating-point chains: each column norm is a chain
// of hypot calls, each reflection a chain of additions. Neither chain can be
// reordered without changing bits, so independent chains run side by side
// instead. The trials of a round advance in lockstep groups of two, and the
// base factorisation takes its steps inside the groups, so a step computes
// up to three norms in one loop; a step reflects the later columns four at a
// time, their dot products separate chains in one loop; and hypot is
// math.Hypot's own operation sequence in plain Go, inlined into the norm
// loop for finite elements, rather than a call into its assembly. Every
// chain still sums its own elements in their own order, so every bit is as
// before. The groups run one at a time on the calling goroutine, so an
// elimination holds two trials' columns at once and the fitted model does
// not depend on GOMAXPROCS.
package linreg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"agingpred/internal/dataset"
	"agingpred/internal/flattree"
)

// Model is a fitted linear regression model: target = Intercept + Σ coef·attr.
type Model struct {
	// Attrs holds the names of the attributes used by the model, in the same
	// order as Coefficients. Attributes eliminated during fitting do not
	// appear.
	Attrs []string
	// Coefficients holds one coefficient per entry of Attrs.
	Coefficients []float64
	// Intercept is the constant term.
	Intercept float64

	// TrainingInstances is the number of instances the model was fitted on.
	TrainingInstances int
	// TrainingMAE is the mean absolute error on the training data.
	TrainingMAE float64

	// attrIndex caches the column index of each attribute for a given schema;
	// it is rebuilt lazily by Predict when the schema changes.
	attrIndex []int
	schemaSig string
}

// Options configures Fit.
type Options struct {
	// Ridge is the L2 penalty used only when the unpenalised system is rank
	// deficient. Zero means a small default (1e-8).
	Ridge float64
	// EliminateAttrs enables M5-style greedy attribute elimination: columns
	// are dropped while doing so does not worsen the Akaike-corrected error.
	EliminateAttrs bool
	// MaxAttrs caps the number of attributes considered (0 = no cap). When
	// the cap is exceeded the attributes most correlated with the target are
	// kept. This keeps leaf models small in deep M5P trees.
	MaxAttrs int
	// Columns restricts the regression to the given attribute column
	// indices. nil means "all columns"; an empty (non-nil) slice fits an
	// intercept-only model (the constant leaf of an M5 tree). M5P uses this
	// to honour the rule that a node's linear model may only reference
	// attributes tested in the node's subtree.
	Columns []int
}

// Fit fits a linear regression model to the dataset.
func Fit(ds *dataset.Dataset, opts Options) (*Model, error) {
	if ds == nil {
		return nil, errors.New("linreg: nil dataset")
	}
	return fit(ds, nil, ds.Len(), opts)
}

// FitRows fits a linear regression model to the instances rows of ds, in
// that order, without copying them into a new dataset: the model is
// bit-identical to Fit on ds.Subset(rows). Every row must index ds. M5P fits
// its node models this way.
func FitRows(ds *dataset.Dataset, rows []int32, opts Options) (*Model, error) {
	if ds == nil {
		return nil, errors.New("linreg: nil dataset")
	}
	return fit(ds, rows, len(rows), opts)
}

// fit implements Fit (rows == nil: every instance) and FitRows.
func fit(ds *dataset.Dataset, rows []int32, n int, opts Options) (*Model, error) {
	if n == 0 {
		return nil, errors.New("linreg: empty dataset")
	}
	lambda := opts.Ridge
	if lambda == 0 {
		lambda = 1e-8
	}
	attrs := ds.Attrs()
	var cols []int
	if opts.Columns != nil {
		cols = make([]int, 0, len(opts.Columns))
		for _, c := range opts.Columns {
			if c < 0 || c >= len(attrs) {
				return nil, fmt.Errorf("linreg: column index %d out of range [0,%d)", c, len(attrs))
			}
			cols = append(cols, c)
		}
		sort.Ints(cols)
	} else {
		cols = make([]int, len(attrs))
		for i := range cols {
			cols[i] = i
		}
	}

	// gather copies attribute column c of the fitted rows into dst.
	gather := func(dst []float64, c int) {
		if rows == nil {
			for i := range dst {
				dst[i] = ds.Row(i)[c]
			}
			return
		}
		for i, r := range rows {
			dst[i] = ds.Row(int(r))[c]
		}
	}
	d := &design{y: make([]float64, n)}
	for i := range d.y {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		d.y[i] = ds.TargetValue(r)
	}
	if opts.MaxAttrs > 0 && len(cols) > opts.MaxAttrs {
		cols = topCorrelatedAmong(d.y, cols, opts.MaxAttrs, gather)
	}
	d.x = make([][]float64, len(cols))
	for j, c := range cols {
		d.x[j] = make([]float64, n)
		gather(d.x[j], c)
	}

	set := make([]int, len(cols))
	for j := range set {
		set[j] = j
	}
	q := newQR(n, len(cols)+1)
	if opts.EliminateAttrs && len(cols) > 1 {
		return d.eliminate(attrs, cols, q, lambda)
	}
	x, err := d.solve(q, set, lambda)
	if err != nil {
		return nil, err
	}
	return d.model(attrs, cols, set, x, d.mae(set, x)), nil
}

// design is a regression problem held column by column: the target and the
// candidate attribute columns, gathered once for the fitted rows.
type design struct {
	y []float64
	x [][]float64 // x[j] holds attribute column cols[j] of the fitted rows
}

// model assembles the Model whose intercept is x[0] and whose coefficients
// x[1:] belong to the design columns set.
func (d *design) model(attrs []string, cols, set []int, x []float64, mae float64) *Model {
	m := &Model{
		Attrs:             make([]string, len(set)),
		Coefficients:      append([]float64(nil), x[1:]...),
		Intercept:         x[0],
		TrainingInstances: len(d.y),
		TrainingMAE:       mae,
	}
	for j, c := range set {
		m.Attrs[j] = attrs[cols[c]]
	}
	return m
}

// mae is the training mean absolute error of the model x (intercept first)
// over the design columns set. Each row's prediction is accumulated term by
// term in set order, exactly as Predict evaluates it, a block of rows at a
// time.
func (d *design) mae(set []int, x []float64) float64 {
	var buf [256]float64
	sumAbs := 0.0
	for lo := 0; lo < len(d.y); lo += len(buf) {
		pred := buf[:min(len(buf), len(d.y)-lo)]
		for i := range pred {
			pred[i] = x[0]
		}
		for j, c := range set {
			coef, col := x[j+1], d.x[c][lo:lo+len(pred)]
			for i := range pred {
				pred[i] += coef * col[i]
			}
		}
		for i, p := range pred {
			sumAbs += math.Abs(p - d.y[lo+i])
		}
	}
	return sumAbs / float64(len(d.y))
}

// akaikeError is the error measure M5 uses to decide whether dropping an
// attribute is worthwhile: the training MAE multiplied by a penalty factor
// (n+v)/(n-v) that grows with the number of parameters v.
func akaikeError(mae float64, n, params int) float64 {
	v := params + 1 // +1 for the intercept
	if n <= v {
		return math.Inf(1)
	}
	return mae * float64(n+v) / float64(n-v)
}

// eliminate fits the model of every column of cols, then greedily drops
// attributes while the Akaike-corrected training error does not increase.
// It returns the best model found (possibly the first one). base is QR
// space sized for every column of cols.
//
// Each round scores every single-attribute drop from the current set and
// keeps the best, the later drop winning ties. The first round's base
// factorisation is also the first model's: it runs once, for both.
func (d *design) eliminate(attrs []string, cols []int, base *qr, lambda float64) (*Model, error) {
	set := make([]int, len(cols))
	for j := range set {
		set[j] = j
	}
	var lanes [lockstep]lane
	x := make([]float64, len(set)+1)
	trials, err := d.dropTrials(set, base, &lanes, lambda, x)
	if err != nil {
		return nil, err
	}
	best := d.model(attrs, cols, set, x, d.mae(set, x))
	bestScore := akaikeError(best.TrainingMAE, len(d.y), len(set))
	for {
		bestDrop, bestDropScore := -1, bestScore
		for drop, tr := range trials {
			if tr.ok && tr.score <= bestDropScore {
				bestDrop, bestDropScore = drop, tr.score
			}
		}
		if bestDrop < 0 {
			return best, nil
		}
		set = append(append([]int(nil), set[:bestDrop]...), set[bestDrop+1:]...)
		best = d.model(attrs, cols, set, trials[bestDrop].x, trials[bestDrop].mae)
		bestScore = bestDropScore
		if len(set) <= 1 {
			return best, nil
		}
		trials, _ = d.dropTrials(set, base, &lanes, lambda, nil)
	}
}

// trial is the outcome of fitting the current set minus one attribute.
type trial struct {
	ok    bool // false when even the ridge fallback failed
	x     []float64
	mae   float64
	score float64
}

// lockstep is the number of elimination trials whose QRs advance together,
// one step at a time, so that their serial floating-point chains run side by
// side (see fitGroup). Each trial of a group holds its own copies of the
// columns after its dropped one, so lockstep also sets how many trials'
// columns an elimination holds at once.
const lockstep = 2

// dropTrials fits, for every position drop of set, the model without
// set[drop]. The base factorisation of set advances one step per trial:
// trial drop resumes from its state after steps 0..drop, when the design
// columns of the two still agree. A trial that falls back to ridge takes
// its normal equations from set's, computed at most once for the round.
// The trials run in groups of lockstep consecutive drops, one group at a
// time, each in lanes; the base takes its steps inside the groups.
//
// When whole is not nil, the base then finishes its own factorisation and
// whole receives the least-squares solution of set itself, exactly as solve
// computes it; the error is solve's.
func (d *design) dropTrials(set []int, base *qr, lanes *[lockstep]lane, lambda float64, whole []float64) ([]trial, error) {
	n, p := len(d.y), len(set) // p: design columns of every trial
	base.load(d, set)
	var normal *normalEquations
	normalOf := func() *normalEquations {
		if normal == nil {
			normal = d.normal(set)
		}
		return normal
	}
	trials := make([]trial, len(set))
	xs := make([]float64, len(set)*p)
	// Once a base step fails, every later trial's own step fails
	// identically: those trials go straight to the ridge fallback.
	shared := n >= p && base.step(0) // a trial's QR needs at least as many rows as columns
	for lo := 0; lo < len(set); lo += lockstep {
		group := lanes[:min(lockstep, len(set)-lo)]
		for i := range group {
			l := &group[i]
			l.drop, l.running = lo+i, false
			l.set = append(append(l.set[:0], set[:l.drop]...), set[l.drop+1:]...)
			trials[l.drop].x = xs[l.drop*p : (l.drop+1)*p]
		}
		shared = d.fitGroup(group, base, shared, normalOf, lambda, trials)
	}
	var err error
	if whole != nil && !(shared && n > p && base.step(p) && base.backSubstitute(whole)) {
		var x []float64
		x, err = ridge(normalOf(), lambda)
		copy(whole, x)
	}
	return trials, err
}

// fitGroup solves and scores the trials of one group, whose first member
// drops design column lo+1 of base; when shared, base has run steps 0..lo.
// Member i resumes from base after its step lo+i, so its first own step is
// lo+i+1; from then on the members still running take each step k
// together, and base takes its steps lo+1..lo+lockstep alongside, the last
// of them for the next group. Every step is one stepTogether. A member
// that never shared the base's prefix, or whose QR fails (a zero column,
// or a failed back-substitution), falls back to ridge while its partners
// go on. fitGroup reports whether base's steps have all succeeded.
func (d *design) fitGroup(group []lane, base *qr, shared bool, normalOf func() *normalEquations, lambda float64, trials []trial) bool {
	lo, p := group[0].drop, len(group[0].set)+1 // p: design columns of every trial
	resume := func(i int) {
		if l := &group[i]; shared {
			l.resume(base, l.drop)
			l.running = true
		}
	}
	var (
		qs      [lockstep + 1]*qr
		running [lockstep + 1]*bool
	)
	for k := lo + 1; k < p; k++ {
		if i := k - lo - 1; i < len(group) {
			resume(i)
		}
		m := 0
		for i := range group {
			if l := &group[i]; l.running {
				qs[m], running[m] = &l.q, &l.running
				m++
			}
		}
		if shared && k <= lo+lockstep {
			qs[m], running[m] = base, &shared
			m++
		}
		if m == 0 {
			continue
		}
		ok := stepTogether(qs[:m], k)
		for i, r := range running[:m] {
			*r = ok[i]
		}
	}
	for i := max(p-lo-1, 0); i < len(group); i++ {
		resume(i) // a trial that takes no steps of its own
	}
	for i := range group {
		l := &group[i]
		tr := &trials[l.drop]
		if !l.running || !l.q.backSubstitute(tr.x) {
			x, err := ridge(normalOf().without(l.drop+1), lambda)
			if err != nil {
				continue
			}
			copy(tr.x, x)
		}
		tr.mae = d.mae(l.set, tr.x)
		tr.score = akaikeError(tr.mae, len(d.y), len(l.set))
		tr.ok = true
	}
	return shared
}

// lane is one trial of a group: the current set without set[drop] and the
// trial's QR, which shares the base's leading columns and holds its own
// copies of the rest in block. An elimination reuses its lanes from trial
// to trial; the first trial to use a lane is the one that copies the most.
type lane struct {
	drop    int
	set     []int
	q       qr
	block   []float64
	running bool // the trial shares the base's prefix and its QR has not failed
}

// resume sets l up as the trial dropping design column drop+1 of base, whose
// steps 0..drop have run: columns 0..drop are base's own (no later base
// step writes them), the rest and y are copies in l's block of base's
// columns after the dropped one.
func (l *lane) resume(base *qr, drop int) {
	n, p := len(base.y), len(base.a)-1
	if size := (p - drop) * n; cap(l.block) < size {
		l.block = make([]float64, size)
	}
	block := l.block
	next := func() []float64 {
		c := block[:n:n]
		block = block[n:]
		return c
	}
	l.q.a = append(l.q.a[:0], base.a[:drop+1]...)
	for _, c := range base.a[drop+2:] {
		l.q.a = append(l.q.a, next())
		copy(l.q.a[len(l.q.a)-1], c)
	}
	l.q.y = next()
	copy(l.q.y, base.y)
}

// topCorrelatedAmong returns the k columns of cols whose absolute Pearson
// correlation with the target y is largest, in ascending column order.
// gather(dst, c) copies column c of the fitted rows into dst; each column is
// scored from one reused scratch buffer, so only the kept columns are ever
// gathered for good.
func topCorrelatedAmong(y []float64, cols []int, k int, gather func(dst []float64, c int)) []int {
	type scored struct {
		c    int
		corr float64
	}
	scoredCols := make([]scored, 0, len(cols))
	x := make([]float64, len(y))
	for _, c := range cols {
		gather(x, c)
		scoredCols = append(scoredCols, scored{c: c, corr: math.Abs(pearson(x, y))})
	}
	sort.SliceStable(scoredCols, func(i, j int) bool { return scoredCols[i].corr > scoredCols[j].corr })
	keep := make([]int, 0, k)
	for i := 0; i < k && i < len(scoredCols); i++ {
		keep = append(keep, scoredCols[i].c)
	}
	sort.Ints(keep)
	return keep
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// solve computes least-squares coefficients for the design columns set plus
// an intercept, returned intercept first, using q as QR space. It first
// tries a QR solve; if the system is rank deficient it falls back to
// ridge-regularised normal equations.
func (d *design) solve(q *qr, set []int, lambda float64) ([]float64, error) {
	if len(d.y) >= len(set)+1 {
		q.load(d, set)
		x := make([]float64, len(set)+1)
		if q.steps(0) && q.backSubstitute(x) {
			return x, nil
		}
	}
	return ridge(d.normal(set), lambda)
}

// ridge solves the normal equations ne by ridgeSolve.
func ridge(ne *normalEquations, lambda float64) ([]float64, error) {
	x, err := ridgeSolve(ne.m, ne.v, ne.p, lambda)
	if err != nil {
		return nil, fmt.Errorf("linreg: solving least squares: %w", err)
	}
	return x, nil
}

// normalEquations holds AᵀA (p×p, row-major) and Aᵀy for a design A. Each
// entry is the dot product of two design columns accumulated in row order,
// so the normal equations of a design without one column are those of the
// full design without that row and column, bit for bit.
type normalEquations struct {
	m, v []float64
	p    int
}

// normal computes the normal equations of the design [1, x[set[0]], ...].
func (d *design) normal(set []int) *normalEquations {
	p := len(set) + 1
	ones := make([]float64, len(d.y))
	for i := range ones {
		ones[i] = 1
	}
	column := func(j int) []float64 {
		if j == 0 {
			return ones
		}
		return d.x[set[j-1]]
	}
	ne := &normalEquations{m: make([]float64, p*p), v: make([]float64, p), p: p}
	for j := 0; j < p; j++ {
		a := column(j)
		ne.v[j] = dot(a, d.y)
		for k := j; k < p; k++ {
			s := dot(a, column(k))
			ne.m[j*p+k], ne.m[k*p+j] = s, s
		}
	}
	return ne
}

// without returns the normal equations with design column j removed.
func (ne *normalEquations) without(j int) *normalEquations {
	p := ne.p - 1
	out := &normalEquations{m: make([]float64, 0, p*p), v: make([]float64, 0, p), p: p}
	for r := 0; r < ne.p; r++ {
		if r == j {
			continue
		}
		row := ne.m[r*ne.p : (r+1)*ne.p]
		out.m = append(append(out.m, row[:j]...), row[j+1:]...)
		out.v = append(out.v, ne.v[r])
	}
	return out
}

// dot accumulates Σ a[i]·b[i] in index order.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i, e := range a {
		s += e * b[i]
	}
	return s
}

// qr is a Householder QR factorisation of a design [1, x...] held column by
// column and advanced one step at a time. Step k reflects rows k.. of every
// later column and of y, and reads no column after k: the state after steps
// 0..k is shared by every design whose first k+1 columns are the same.
type qr struct {
	a    [][]float64 // design columns, reflected in place; after step k, a[k][k] holds -R(k,k)
	y    []float64   // target, reflected in place
	cols [][]float64 // backing columns a is loaded into
}

// newQR allocates QR space for designs of up to p columns over n rows.
func newQR(n, p int) *qr {
	return &qr{a: make([][]float64, p), y: make([]float64, n), cols: columns(n, p)}
}

// columns allocates p columns of n rows in one block.
func columns(n, p int) [][]float64 {
	block := make([]float64, n*p)
	cols := make([][]float64, p)
	for j := range cols {
		cols[j] = block[j*n : (j+1)*n : (j+1)*n]
	}
	return cols
}

// load copies the design [1, x[set[0]], ...] and the target into q.
func (q *qr) load(d *design, set []int) {
	q.a = q.a[:len(set)+1]
	copy(q.a, q.cols)
	for i := range q.a[0] {
		q.a[0][i] = 1
	}
	for j, c := range set {
		copy(q.a[j+1], d.x[c])
	}
	copy(q.y, d.y)
}

// steps runs steps from.. of the factorisation. It reports false when a
// column is zero below the diagonal, i.e. the design is rank deficient.
func (q *qr) steps(from int) bool {
	for k := from; k < len(q.a); k++ {
		if !q.step(k) {
			return false
		}
	}
	return true
}

// step computes the Householder reflector of column k below the diagonal
// and applies it to the later columns and to y.
func (q *qr) step(k int) bool {
	return stepTogether([]*qr{q}, k)[0]
}

// stepTogether runs step k of each QR in qs, at most lockstep+1 of them
// with columns of the same length, side by side: the column norms are
// separate hypot chains in one loop, each over its own column in element
// order, so each QR gets exactly the bits its own step computes. ok[i]
// reports qs[i]'s step. The loop is written for three chains, a group's
// two members and the base; a missing QR repeats the first one's chain,
// which costs little while the chains are latency-bound.
func stepTogether(qs []*qr, k int) (ok [lockstep + 1]bool) {
	var v [lockstep + 1][]float64
	for i := range v {
		v[i] = qs[0].a[k][k:]
		if i < len(qs) {
			v[i] = qs[i].a[k][k:]
		}
	}
	v0, v1, v2 := v[0], v[1][:len(v[0])], v[2][:len(v[0])]
	var n0, n1, n2 float64
	for i, e0 := range v0 {
		e1, e2 := v1[i], v2[i]
		// A norm only grows, to +Inf at worst, which hypotFinite takes; a
		// non-finite element, and every element after a NaN, takes hypot.
		if finite(e0) && finite(e1) && finite(e2) && !math.IsNaN(n0+n1+n2) {
			n0, n1, n2 = hypotFinite(n0, e0), hypotFinite(n1, e1), hypotFinite(n2, e2)
		} else {
			n0, n1, n2 = hypot(n0, e0), hypot(n1, e1), hypot(n2, e2)
		}
	}
	norm := [...]float64{n0, n1, n2}
	for i, q := range qs {
		ok[i] = q.reflectBy(k, norm[i])
	}
	return ok
}

// reflectBy finishes step k, given the norm of column k below the diagonal:
// it forms the reflector and applies it to the later columns and to y, four
// at a time. It reports false when the norm is zero, i.e. the design is
// rank deficient.
func (q *qr) reflectBy(k int, norm float64) bool {
	if norm == 0 {
		return false
	}
	v := q.a[k][k:]
	// A column already zero below the pivot needs no reflection: H = I
	// (LAPACK dlarfg's τ = 0) and R(k,k) is the pivot itself. Forming the
	// reflector would make v[0] zero and divide by it. The norm of such a
	// column is exactly |pivot|, so the scan runs only when it can succeed.
	if math.Abs(v[0]) == norm && allZero(v[1:]) {
		v[0] = -v[0]
		return true
	}
	if v[0] > 0 {
		norm = -norm
	}
	for i := range v {
		v[i] /= norm
	}
	v[0] += 1
	// Targets k+1..len(q.a)-1 are the later columns, len(q.a) is y.
	j, end := k+1, len(q.a)+1
	for ; j+4 <= end; j += 4 {
		reflect4(v, q.target(j, k), q.target(j+1, k), q.target(j+2, k), q.target(j+3, k))
	}
	if j+2 <= end {
		reflect2(v, q.target(j, k), q.target(j+1, k))
		j += 2
	}
	if j < end {
		reflect(v, q.target(j, k))
	}
	// The diagonal entry of R is -norm; back-substitution negates it.
	v[0] = norm
	return true
}

// allZero reports whether every element of v is zero.
func allZero(v []float64) bool {
	for _, e := range v {
		if e != 0 {
			return false
		}
	}
	return true
}

// target returns rows k.. of design column j, or of y when j is len(q.a).
func (q *qr) target(j, k int) []float64 {
	if j == len(q.a) {
		return q.y[k:]
	}
	return q.a[j][k:]
}

// reflect applies the reflector v (pivot v[0]) to c.
func reflect(v, c []float64) {
	c = c[:len(v)]
	s := 0.0
	for i, e := range v {
		s += e * c[i]
	}
	s = -s / v[0]
	for i, e := range v {
		c[i] += s * e
	}
}

// reflect2 is reflect on c0 and c1, with the two dot products as separate
// chains in one loop.
func reflect2(v, c0, c1 []float64) {
	c0, c1 = c0[:len(v)], c1[:len(v)]
	s0, s1 := 0.0, 0.0
	for i, e := range v {
		s0 += e * c0[i]
		s1 += e * c1[i]
	}
	s0, s1 = -s0/v[0], -s1/v[0]
	for i, e := range v {
		c0[i] += s0 * e
		c1[i] += s1 * e
	}
}

// reflect4 is reflect on c0..c3, with the four dot products as separate
// chains in one loop.
func reflect4(v, c0, c1, c2, c3 []float64) {
	c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
	s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
	for i, e := range v {
		s0 += e * c0[i]
		s1 += e * c1[i]
		s2 += e * c2[i]
		s3 += e * c3[i]
	}
	s0, s1, s2, s3 = -s0/v[0], -s1/v[0], -s2/v[0], -s3/v[0]
	for i, e := range v {
		c0[i] += s0 * e
		c1[i] += s1 * e
		c2[i] += s2 * e
		c3[i] += s3 * e
	}
}

// hypot returns math.Hypot(p, q) bit for bit: for finite arguments it runs
// the same operations, p·√(1+(q/p)²) after taking absolute values and
// ordering them (hypotFinite), as plain Go, so a norm chain pays no call
// into the assembly routine; any other argument goes to math.Hypot.
func hypot(p, q float64) float64 {
	if !finite(p) || !finite(q) {
		return math.Hypot(p, q)
	}
	return hypotFinite(p, q)
}

// hypotFinite is hypot for a finite q and a p that is finite or +Inf. It
// is small enough for the compiler to inline into the norm loop. The
// conversion float64(q*q) rounds the square before the addition, as the
// assembly does: it keeps the compiler from fusing the two into one FMA.
func hypotFinite(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q /= p
	return p * math.Sqrt(1+float64(q*q))
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// backSubstitute solves R x = Qᵀy for a completed factorisation. It reports
// false when R is (numerically) singular or x is not finite.
func (q *qr) backSubstitute(x []float64) bool {
	p := len(q.a)
	const rankTol = 1e-10
	maxDiag := 0.0
	for k := 0; k < p; k++ {
		if d := math.Abs(q.a[k][k]); d > maxDiag {
			maxDiag = d
		}
	}
	for k := p - 1; k >= 0; k-- {
		diag := -q.a[k][k]
		if math.Abs(diag) <= rankTol*maxDiag || diag == 0 {
			return false
		}
		s := q.y[k]
		for j := k + 1; j < p; j++ {
			s -= q.a[j][k] * x[j]
		}
		x[k] = s / diag
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ridgeSolve solves (M + λD)x = v, the normal equations M = AᵀA, v = Aᵀb of
// a p-column design A, by Cholesky decomposition, where D is
// a diagonal scaling matrix derived from AᵀA itself so the penalty is
// meaningful regardless of the (often wildly different) column scales of the
// derived Table 2 features. The intercept column is penalised too; with the
// tiny default λ this bias is negligible and it keeps the matrix strictly
// positive definite. If the factorisation still fails, the penalty is
// escalated a few times before giving up.
func ridgeSolve(m, v []float64, p int, lambda float64) ([]float64, error) {
	if lambda <= 0 {
		lambda = 1e-8
	}
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		penalised := append([]float64(nil), m...)
		for j := 0; j < p; j++ {
			// Relative penalty: scale by the column's own energy so columns
			// with values around 1e6 and columns around 1e-3 are both
			// regularised meaningfully.
			penalised[j*p+j] += lambda * (1 + m[j*p+j])
		}
		x, err := choleskySolve(penalised, v, p)
		if err == nil {
			return x, nil
		}
		lastErr = err
		lambda *= 1e3
	}
	return nil, fmt.Errorf("ridge solve failed even with escalated penalty: %w", lastErr)
}

// choleskySolve solves the symmetric positive definite system M x = v.
func choleskySolve(m, v []float64, p int) ([]float64, error) {
	l := make([]float64, p*p)
	for j := 0; j < p; j++ {
		sum := m[j*p+j]
		for k := 0; k < j; k++ {
			sum -= l[j*p+k] * l[j*p+k]
		}
		if sum <= 0 {
			return nil, fmt.Errorf("matrix not positive definite at column %d", j)
		}
		l[j*p+j] = math.Sqrt(sum)
		for i := j + 1; i < p; i++ {
			s := m[i*p+j]
			for k := 0; k < j; k++ {
				s -= l[i*p+k] * l[j*p+k]
			}
			l[i*p+j] = s / l[j*p+j]
		}
	}
	// Solve L z = v, then Lᵀ x = z.
	z := make([]float64, p)
	for i := 0; i < p; i++ {
		s := v[i]
		for k := 0; k < i; k++ {
			s -= l[i*p+k] * z[k]
		}
		z[i] = s / l[i*p+i]
	}
	x := make([]float64, p)
	for i := p - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < p; k++ {
			s -= l[k*p+i] * x[k]
		}
		x[i] = s / l[i*p+i]
	}
	for _, val := range x {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, errors.New("ridge solution is not finite")
		}
	}
	return x, nil
}

// Predict returns the model's prediction for an instance given as a full row
// of the dataset schema it was trained on (or any schema containing the
// model's attributes). attrs names the columns of row.
func (m *Model) Predict(attrs []string, row []float64) (float64, error) {
	if len(attrs) != len(row) {
		return 0, fmt.Errorf("linreg: %d attribute names for %d values", len(attrs), len(row))
	}
	if err := m.bindSchema(attrs); err != nil {
		return 0, err
	}
	pred := m.Intercept
	for j, idx := range m.attrIndex {
		pred += m.Coefficients[j] * row[idx]
	}
	return pred, nil
}

// PredictDataset returns predictions for every instance of ds.
func (m *Model) PredictDataset(ds *dataset.Dataset) ([]float64, error) {
	attrs := ds.Attrs()
	out := make([]float64, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		v, err := m.Predict(attrs, ds.Row(i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// bindSchema resolves the model's attribute names against a row schema,
// caching the result until the schema changes.
func (m *Model) bindSchema(attrs []string) error {
	sig := strings.Join(attrs, "\x00")
	if sig == m.schemaSig && m.attrIndex != nil {
		return nil
	}
	idx, err := m.resolveAttrs(attrs)
	if err != nil {
		return err
	}
	m.attrIndex = idx
	m.schemaSig = sig
	return nil
}

// resolveAttrs maps each model attribute onto its column in the given row
// schema.
func (m *Model) resolveAttrs(attrs []string) ([]int, error) {
	idx := make([]int, len(m.Attrs))
	for j, name := range m.Attrs {
		found := -1
		for i, a := range attrs {
			if a == name {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("linreg: instance schema is missing attribute %q", name)
		}
		idx[j] = found
	}
	return idx, nil
}

// NumAttrs returns the number of attributes retained by the model.
func (m *Model) NumAttrs() int { return len(m.Attrs) }

// Bind resolves the model's attributes against the given row schema once
// and compiles it into a one-leaf internal/flattree layout, whose Predict
// resolves no attribute names and allocates nothing per call. The terms
// keep their order, so the bound Predict matches Model.Predict term for
// term and the two are bit-identical. The schema may be wider or reordered
// as long as every model attribute is present. The returned tree is
// independent of the receiver's own lazy schema cache, so it can be shared
// across goroutines.
func (m *Model) Bind(attrs []string) (*flattree.Tree, error) {
	cols, err := m.resolveAttrs(attrs)
	if err != nil {
		return nil, err
	}
	var b flattree.Builder
	b.Node(-1, 0, m.Intercept)
	for j, c := range cols {
		b.Term(m.Coefficients[j], c)
	}
	return b.Build(len(attrs), true, 0)
}

// String renders the regression equation in a human-readable form, e.g.
// "ttf = 120.5 - 3.2*tomcat_mem + 0.8*threads".
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.6g", m.Intercept)
	for i, a := range m.Attrs {
		c := m.Coefficients[i]
		if c >= 0 {
			fmt.Fprintf(&b, " + %.6g*%s", c, a)
		} else {
			fmt.Fprintf(&b, " - %.6g*%s", -c, a)
		}
	}
	return b.String()
}
