package paillier

import "secmr/internal/homo"

// EncryptZeroVec returns n fresh encryptions of zero, computed over the
// shared homo worker pool (homo.BatchScheme): each is a fixed-base noise
// draw, far above dispatch cost, and every Scheme operation is safe for
// concurrent use (immutable keys, sync.Pool scratch, a once-built noise
// table). Outputs land at their own index, so the batch decrypts
// exactly as the serial loop does.
func (s *Scheme) EncryptZeroVec(n int) []*homo.Ciphertext {
	out := make([]*homo.Ciphertext, n)
	homo.ParallelFor(n, func(i int) { out[i] = s.EncryptZero() })
	return out
}

var _ homo.BatchScheme = (*Scheme)(nil)
