package shamir

import "fmt"

// Params fixes a sharing geometry.
//
//   - K is the reconstruction threshold: any K shares reconstruct, any
//     K−1 reveal nothing. It is matched to the protocol's privacy
//     parameter k, so the set of shares that can open a counter is
//     exactly the coalition size the k-gate already reasons about.
//   - N is the committee size: every value is dealt as N shares.
//   - W is the number of secrets per polynomial, and must be 1: each
//     counter field is its own sharing, as in the paper's §5.2
//     oblivious counter. The field stays so key material written with
//     it keeps its layout.
type Params struct {
	K int
	N int
	W int
}

// MaxShares bounds the committee size; a share vector costs 8·N bytes
// everywhere it travels, so a runaway N is a config bug, not a scale
// feature.
const MaxShares = 4096

func (p Params) validate() error {
	if p.K < 1 {
		return fmt.Errorf("shamir: threshold K=%d, need ≥ 1", p.K)
	}
	if p.W != 1 {
		return fmt.Errorf("shamir: W=%d secrets per polynomial, need 1", p.W)
	}
	if p.N < p.K {
		return fmt.Errorf("shamir: N=%d shares cannot reconstruct a K=%d sharing", p.N, p.K)
	}
	if p.N > MaxShares {
		return fmt.Errorf("shamir: N=%d exceeds the %d-share cap", p.N, MaxShares)
	}
	return nil
}

// Geometry is an immutable sharing geometry with its Lagrange
// reconstruction vector precomputed, so opening a value is one dot
// product over GF(2^61−1) with no inversion. Safe for concurrent use.
//
// A value v is dealt as the polynomial f(x) = v + Σ_a aux[a]·x^(a+1)
// of degree K−1, with K−1 uniformly random aux coefficients; share i
// is f(i+1). Any K−1 shares are jointly uniform regardless of v
// (perfect hiding — witnessed constructively by TestSubThresholdHiding).
type Geometry struct {
	p Params
	// rec[i] is the Lagrange weight of share i (point i+1) in the
	// reconstruction of f(0) from the first K shares.
	rec []uint64
}

// NewGeometry validates p and precomputes its reconstruction vector.
func NewGeometry(p Params) (*Geometry, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	base := make([]uint64, p.K)
	for i := range base {
		base[i] = uint64(i + 1)
	}
	return &Geometry{p: p, rec: lagrangeVector(base, 0)}, nil
}

// Params returns the geometry's parameters.
func (g *Geometry) Params() Params { return g.p }

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

// Reconstruct recovers the secret from a full share vector (only the
// first K shares are consulted) — a single dot product.
func (g *Geometry) Reconstruct(shares []uint64) uint64 {
	if len(shares) < g.p.K {
		panic(fmt.Sprintf("shamir: %d shares cannot reconstruct (threshold %d)", len(shares), g.p.K))
	}
	return Dot(g.rec, shares[:g.p.K])
}
