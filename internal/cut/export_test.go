package cut

import "roadpart/internal/eigen"

// Decomposition returns the cached decomposition, nil before the first
// solve.
func (s *Spectral) Decomposition() *eigen.Decomposition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dec
}
