package offload

import "time"

// SetIdleTimeout shortens a server's idle bound for tests outside the
// package. Call it before Serve.
func SetIdleTimeout(s *Server, d time.Duration) { s.idle = d }
