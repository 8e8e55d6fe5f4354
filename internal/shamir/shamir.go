package shamir

import "fmt"

// Params fixes a sharing geometry.
//
//   - K is the reconstruction threshold for an unpacked (W = 1)
//     sharing: any K shares reconstruct, any K−1 reveal nothing. It is
//     matched to the protocol's privacy parameter k, so the set of
//     shares that can open a counter is exactly the coalition size the
//     k-gate already reasons about.
//   - N is the committee size: every value is dealt as N shares.
//   - W is the packing width: one polynomial carries W secrets
//     (packed Shamir). Reconstruction then needs T = K+W−1 shares
//     while the hiding threshold stays K−1 — packing trades committee
//     headroom for W× fewer share vectors per plaintext vector.
type Params struct {
	K int
	N int
	W int
}

// Threshold returns T = K+W−1, the number of shares that reconstruct.
func (p Params) Threshold() int { return p.K + p.W - 1 }

// maxShares bounds the committee size; a share vector costs 8·N bytes
// everywhere it travels, so a runaway N is a config bug, not a scale
// feature.
const maxShares = 4096

func (p Params) validate() error {
	if p.K < 1 {
		return fmt.Errorf("shamir: threshold K=%d, need ≥ 1", p.K)
	}
	if p.W < 1 {
		return fmt.Errorf("shamir: packing width W=%d, need ≥ 1", p.W)
	}
	if p.N < p.Threshold() {
		return fmt.Errorf("shamir: N=%d shares cannot reconstruct a K=%d W=%d sharing (need ≥ %d)",
			p.N, p.K, p.W, p.Threshold())
	}
	if p.N > maxShares {
		return fmt.Errorf("shamir: N=%d exceeds the %d-share cap", p.N, maxShares)
	}
	return nil
}

// Geometry is an immutable sharing geometry with every Lagrange vector
// precomputed: dealing and reconstruction are matrix-vector products
// over GF(2^61−1), no inversions on any hot path. Safe for concurrent
// use.
//
// Evaluation-point layout (all distinct residues):
//
//	shares   x = 1 … N
//	secrets  x = −0 … −(W−1)  i.e. 0, P−1, …, P−W+1
//	aux      x = N+1 … N+K−1  (the K−1 random degrees of freedom)
//
// A dealt polynomial has degree T−1 = K+W−2; it is pinned by its W
// secret-point values plus K−1 uniformly random aux-point values, so
// any K−1 shares are jointly uniform regardless of the secrets
// (perfect hiding — witnessed constructively by TestSubThresholdHiding).
type Geometry struct {
	p Params
	// rec[j][i] is the Lagrange weight of share i (point i+1) in the
	// reconstruction of secret slot j from the first T shares.
	rec [][]uint64
	// deal[i] is the evaluation vector of share i over the defining
	// values (W secrets ‖ K−1 aux randoms). nil when W == 1 — the
	// unpacked fast path deals by Horner over random coefficients.
	deal [][]uint64
}

// NewGeometry validates p and precomputes its Lagrange vectors.
func NewGeometry(p Params) (*Geometry, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	g := &Geometry{p: p}
	T := p.Threshold()

	// Reconstruction: from share points 1…T to each secret point.
	base := make([]uint64, T)
	for i := range base {
		base[i] = uint64(i + 1)
	}
	g.rec = make([][]uint64, p.W)
	for j := 0; j < p.W; j++ {
		g.rec[j] = lagrangeVector(base, secretPoint(j))
	}

	// Packed dealing: from the defining points (secrets ‖ aux) to each
	// share point. The unpacked case never consults it.
	if p.W > 1 {
		def := make([]uint64, T)
		for j := 0; j < p.W; j++ {
			def[j] = secretPoint(j)
		}
		for a := 0; a < p.K-1; a++ {
			def[p.W+a] = uint64(p.N + 1 + a)
		}
		g.deal = make([][]uint64, p.N)
		for i := 0; i < p.N; i++ {
			g.deal[i] = lagrangeVector(def, uint64(i+1))
		}
	}
	return g, nil
}

// Params returns the geometry's parameters.
func (g *Geometry) Params() Params { return g.p }

// secretPoint returns the evaluation point of packed slot j: −j mod P.
// Slot 0 sits at x = 0, the textbook Shamir secret position.
func secretPoint(j int) uint64 {
	if j == 0 {
		return 0
	}
	return P - uint64(j)
}

// lagrangeVector returns λ with λ[i] = Π_{m≠i} (y−x[m]) / (x[i]−x[m]):
// f(y) = Σ λ[i]·f(x[i]) for any polynomial f of degree < len(x). The
// points must be distinct residues.
func lagrangeVector(xs []uint64, y uint64) []uint64 {
	out := make([]uint64, len(xs))
	for i, xi := range xs {
		num, den := uint64(1), uint64(1)
		for m, xm := range xs {
			if m == i {
				continue
			}
			num = fieldMul(num, fieldSub(y, xm))
			den = fieldMul(den, fieldSub(xi, xm))
		}
		out[i] = fieldMul(num, fieldInv(den))
	}
	return out
}

// Deal produces the N shares of a packed secret vector. secrets must
// hold exactly W reduced residues; aux must hold exactly K−1 residues
// and MUST be uniformly random — they are the entire hiding margin.
func (g *Geometry) Deal(secrets, aux []uint64) []uint64 {
	if len(secrets) != g.p.W {
		panic(fmt.Sprintf("shamir: Deal with %d secrets, geometry packs %d", len(secrets), g.p.W))
	}
	if len(aux) != g.p.K-1 {
		panic(fmt.Sprintf("shamir: Deal with %d aux randoms, need K-1 = %d", len(aux), g.p.K-1))
	}
	vals := make([]uint64, 0, g.p.Threshold())
	vals = append(append(vals, secrets...), aux...)
	out := make([]uint64, g.p.N)
	for i := range out {
		out[i] = g.shareAt(i, vals)
	}
	return out
}

// shareAt returns share i of the polynomial pinned by its defining
// values vals = secrets ‖ aux (T residues).
func (g *Geometry) shareAt(i int, vals []uint64) uint64 {
	if g.deal == nil {
		// Unpacked fast path: vals is the polynomial in coefficient
		// form (secret, aux…); share i is a Horner evaluation at x = i+1.
		return hornerEval(vals, uint64(i+1))
	}
	// Packed path: shares are Lagrange combinations of the defining
	// values.
	return Dot(g.deal[i], vals)
}

// Reconstruct recovers the W packed secrets from a full share vector
// (only the first T = K+W−1 shares are consulted).
func (g *Geometry) Reconstruct(shares []uint64) []uint64 {
	out := make([]uint64, g.p.W)
	for j := range out {
		out[j] = g.ReconstructSlot(shares, j)
	}
	return out
}

// ReconstructSlot recovers one packed slot from a full share vector —
// the single-dot-product decrypt path.
func (g *Geometry) ReconstructSlot(shares []uint64, slot int) uint64 {
	T := g.p.Threshold()
	if len(shares) < T {
		panic(fmt.Sprintf("shamir: %d shares cannot reconstruct (threshold %d)", len(shares), T))
	}
	return Dot(g.rec[slot], shares[:T])
}
