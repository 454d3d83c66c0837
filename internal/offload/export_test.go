package offload

import "time"

// SetIdleTimeout shortens a server's idle bound for tests outside the
// package. Call it before Serve.
func SetIdleTimeout(s *Server, d time.Duration) { s.idle = d }

// HoldScoringTokens takes every scoring token of s, so no query on any
// connection can be scored until the returned release is called. Frames
// that need no token (Ping, listing) are still answered.
func HoldScoringTokens(s *Server) (release func()) {
	for i := 0; i < cap(s.tokens); i++ {
		s.tokens <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(s.tokens); i++ {
			<-s.tokens
		}
	}
}
