// Resilience mechanics for the cluster layer: jittered retry backoff, the
// per-call retry allowance, the re-admission cooldown ladder, in-band
// liveness pings on idle pooled connections, and hedged requests.
//
// These compose with the existing machinery: a replica's healthy flag is
// its one health state (the ladder only gates how eagerly a probe may
// re-admit a flapping replica), and the cluster's failover loop is the one
// retry loop of a cluster call — a cluster's pools make one attempt per
// visit. The allowance is a plain counter that bounds how many failovers
// one call may burn; only a hedged pair shares one. Hedging rides on the
// same failover primitive: every call runs an Op that returns its result,
// and a hedged pair's two attempts each carry their own result back over a
// channel, so concurrent attempts share no caller state and the winner's
// result is simply returned.
package cluster

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"privehd/internal/offload"
	"privehd/internal/trace"
)

// jitterBackoff spreads a backoff delay uniformly over [d/2, d] so a fleet
// of clients that lost the same replica at the same moment does not redial
// it in lockstep (thundering herd). The cap is the caller's: d is already
// clamped to MaxBackoff before jittering.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// errDialBackoff tags a pool rejection issued from inside a dial-backoff
// window. Such a rejection performs no I/O — the replica already paid
// (ejection, backoff) for the dial failure that opened the window — so
// failover treats it as "unavailable right now" rather than a fresh
// failure: no re-ejection and no charge against the call's allowance.
// Without the distinction, a fleet-wide blip drains a call's entire
// allowance on attempts that never leave the process.
var errDialBackoff = errors.New("backing off")

// callAllowance is how many failovers one logical call may spend: four
// per replica, so one call makes at most 1 + 4×replicas attempts. A single
// sweep is too brittle when a cut connection fails several multiplexed
// calls at once and they re-converge on the same fresh connection; a few
// sweeps absorb that correlation, and anything beyond is an attempt storm
// the allowance exists to stop.
func (cl *Cluster) callAllowance() int64 { return 4 * int64(len(cl.replicas)) }

// failoverPause is the jittered pause before the Nth failover attempt of
// one call. The first failover is immediate — one replica dying must not
// slow the caller — and later ones back off with jitter so a call
// sweeping a sick fleet does not hammer it in a tight loop.
func failoverPause(attempt int) time.Duration {
	if attempt < 2 {
		return 0
	}
	d := time.Millisecond << uint(attempt-2)
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return jitterBackoff(d)
}

// Re-admission cooldown ladder. Ejection is the one health state a
// replica has; the ladder only decides how eagerly a probe may end it.
// The first ejection has no cooldown — the next successful probe
// re-admits, so a one-off failure costs no friction — and each later one
// doubles the wait before a probe may re-admit, so a replica that keeps
// dying right after coming back is probed back in less and less eagerly.
// A stable run of successes resets the ladder, and a successful request
// re-admits at once whatever the cooldown: real work answering is better
// evidence than any probe. The health gauge, transition counter and log
// event move only when a replica is actually ejected or re-admitted, so
// steady traffic and probes stay silent.
const (
	// readmitCooldownBase is the probe re-admission cooldown after the
	// second ejection (the first has none at all).
	readmitCooldownBase = 250 * time.Millisecond
	// readmitCooldownMax caps the doubling cooldown ladder.
	readmitCooldownMax = 4 * time.Second
	// readmitStableAfter is how many consecutive successes reset the
	// ladder back to a free first ejection.
	readmitStableAfter = 8
)

// recordFailure registers a transport failure against r — of traffic, or
// of a health probe when probe is set — and ejects it. Only the ejection
// of a healthy replica climbs the cooldown ladder; failures of a replica
// already ejected (the all-ejected fallback, a failing probe) leave its
// cooldown clock alone.
func (cl *Cluster) recordFailure(r *replica, probe bool, cause error) {
	r.mu.Lock()
	r.streak = 0
	ejected := r.healthy
	if ejected {
		r.healthy = false
		r.ejectedAt = time.Now()
		switch {
		case r.ejections == 0:
			r.cooldown = 0
		case r.cooldown == 0:
			r.cooldown = readmitCooldownBase
		default:
			r.cooldown = min(2*r.cooldown, readmitCooldownMax)
		}
		r.ejections++
	}
	r.mu.Unlock()
	if !ejected {
		return
	}
	reason := "transport failure"
	if probe {
		reason = "health probe failed"
	}
	cmReplicaHealthy.With(r.addr).Set(0)
	cmTransitions.With(r.addr, "ejected").Inc()
	cl.log.Warn("replica ejected", "replica", r.addr, "reason", reason, "error", cause)
}

// recordSuccess registers that r answered — a request, or a health probe
// when probe is set — and re-admits it, reporting whether it was ejected
// until now. A probe counts only against an ejected replica past its
// cooldown: one inside the cooldown, or of a healthy replica, records
// nothing.
func (cl *Cluster) recordSuccess(r *replica, probe bool) bool {
	r.mu.Lock()
	if probe && (r.healthy || time.Since(r.ejectedAt) < r.cooldown) {
		r.mu.Unlock()
		return false
	}
	r.streak++
	if r.streak >= readmitStableAfter {
		r.ejections, r.cooldown = 0, 0
	}
	readmitted := !r.healthy
	r.healthy = true
	r.mu.Unlock()
	if !readmitted {
		return false
	}
	reason := "operation succeeded"
	if probe {
		reason = "health probe answered"
	}
	cmReplicaHealthy.With(r.addr).Set(1)
	cmTransitions.With(r.addr, "readmitted").Inc()
	cl.log.Info("replica re-admitted", "replica", r.addr, "reason", reason)
	return true
}

// Hedged requests (ClusterConfig.Hedge): when a call's primary attempt
// has not answered after the hedge delay, a backup attempt is issued to a
// different replica and the first reply wins (classification is
// idempotent, so duplicated work is waste, never corruption); the loser is
// canceled. The delay tracks roughly the 90th percentile of recently
// observed per-attempt latencies, clamped to [hedgeDelayMin,
// hedgeDelayMax], so hedges fire for stragglers, not for the median.
const (
	hedgeLatWindow  = 64 // per-attempt latency samples the adaptive delay sees
	hedgeLatRefresh = 16 // recompute the cached delay every N observations
	hedgeDelayMin   = time.Millisecond
	hedgeDelayMax   = 100 * time.Millisecond
)

// observeLatency feeds one successful attempt's latency to the adaptive
// hedge delay. Only called when hedging is enabled.
func (cl *Cluster) observeLatency(d time.Duration) {
	cl.latMu.Lock()
	cl.lats[cl.latIdx%hedgeLatWindow] = int64(d)
	cl.latIdx++
	n := cl.latIdx
	var recompute []int64
	if n%hedgeLatRefresh == 0 {
		w := hedgeLatWindow
		if n < w {
			w = n
		}
		recompute = append(recompute, cl.lats[:w]...)
	}
	cl.latMu.Unlock()
	if recompute == nil {
		return
	}
	// Rough p90 by selection: sort the (small, copied) window.
	for i := 1; i < len(recompute); i++ {
		for j := i; j > 0 && recompute[j] < recompute[j-1]; j-- {
			recompute[j], recompute[j-1] = recompute[j-1], recompute[j]
		}
	}
	p90 := recompute[(len(recompute)*9)/10%len(recompute)]
	cl.hedgeDelayNs.Store(p90)
}

// hedgeDelay resolves the current delay before a backup attempt launches.
func (cl *Cluster) hedgeDelay() time.Duration {
	return min(max(time.Duration(cl.hedgeDelayNs.Load()), hedgeDelayMin), hedgeDelayMax)
}

// Hedged runs op with tail-latency hedging when the cluster has Hedge set
// (plain failover otherwise) and returns the winning attempt's result: the
// primary attempt runs the usual failover path, and if it has not resolved
// after the hedge delay a backup attempt of the same op launches against a
// replica distinct from the one the primary is on. First success wins; the
// loser's context is canceled and its late result discarded. Both attempts
// spend one shared allowance, so hedging cannot double a call's failovers.
// span (nil-safe) gets the hedge's in-flight window as StageHedge.
func Hedged[T any](ctx context.Context, cl *Cluster, span *trace.Span, op Op[T]) (T, error) {
	if !cl.cfg.Hedge || len(cl.replicas) < 2 {
		return do(ctx, cl, op)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	left := cl.callAllowance()

	type outcome struct {
		v     T
		err   error
		hedge bool
	}
	resCh := make(chan outcome, 2)

	// One context for both attempts: they are only ever canceled together,
	// once the verdict is in.
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var primaryOn atomic.Pointer[replica]
	go func() {
		v, err := failover(actx, cl, &left, nil, primaryOn.Store, op)
		resCh <- outcome{v: v, err: err}
	}()

	timer := time.NewTimer(cl.hedgeDelay())
	defer timer.Stop()
	var (
		hedgeStart  time.Time
		hedgeFlight bool
	)

	// first is the verdict; second, once a hedge is in flight, is the other
	// attempt's outcome. An attempt that fails while the other may still
	// win is held as second, so first is a success whenever either attempt
	// succeeded.
	var first, second *outcome
	for first == nil {
		select {
		case <-timer.C:
			if hedgeFlight {
				continue
			}
			hedgeFlight = true
			hedgeStart = time.Now()
			// Aim the hedge away from wherever the primary currently is;
			// pick falls back gracefully when nothing else is healthy.
			var prefer *replica
			if avoid := primaryOn.Load(); avoid != nil {
				prefer = cl.pick(map[*replica]bool{avoid: true})
			}
			go func() {
				v, err := failover(actx, cl, &left, prefer, nil, op)
				resCh <- outcome{v: v, err: err, hedge: true}
			}()
		case out := <-resCh:
			if out.err != nil && hedgeFlight && second == nil {
				// One attempt failed while the other may still win: hold
				// the verdict for the survivor. (A typed protocol error
				// from a live server is still worth racing: the other
				// attempt may be talking to a healthier publication, and
				// if it fails too the first verdict stands.)
				second = &out
				continue
			}
			first = &out
		}
	}

	// Resolve the loser: cancel it and drain its outcome so no goroutine
	// outlives the call and the hedge metrics can tell lost from canceled.
	if hedgeFlight && second == nil {
		cancel()
		o := <-resCh
		second = &o
	}

	if hedgeFlight {
		span.ObserveSince(trace.StageHedge, hedgeStart)
		switch {
		case first.err != nil:
			cmHedges.With("canceled").Inc()
		case first.hedge:
			cmHedges.With("won").Inc()
		case second.err == nil:
			// The primary won and second is the hedge, which also answered.
			cmHedges.With("lost").Inc()
		default:
			cmHedges.With("canceled").Inc()
		}
	}
	// Prefer a typed verdict over a cancellation artifact: if the other
	// attempt failed with a real answer, surface that.
	err := first.err
	if err != nil && second != nil && !errors.Is(err, context.Canceled) && !errors.Is(second.err, offload.ErrTransport) && errors.Is(err, offload.ErrTransport) {
		err = second.err
	}
	return first.v, err
}

// Ping interval defaults (see PoolConfig.PingInterval).
const (
	// DefaultPingInterval is how long a pooled connection may sit idle
	// before the pool pings it in-band; negative disables pinging.
	DefaultPingInterval = 15 * time.Second
	// pingTimeout caps how long one liveness ping may take before the
	// connection is declared dead (tighter of this and the pool's
	// IOTimeout).
	pingTimeout = 2 * time.Second
)

// pingIdle pings every connection that has sat idle for at least one ping
// interval. A connection is held (in-flight incremented) across its ping
// so acquire sees it busy, but lastUse is
// deliberately NOT updated: a ping is not use, and a conn nobody needs
// must still age out. Any ping error — transport, timeout, or a typed
// refusal of the op, which no v6 server sends — means the peer's serve
// loop is gone or is not a healthy v6 peer, so the connection is dropped
// immediately instead of poisoning the next caller. The pings also keep
// an idle connection inside the server's idle bound.
func (p *Pool) pingIdle(now time.Time) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	var targets []*poolConn
	for _, pc := range p.conns {
		if pc.inflight == 0 && pc.c.Err() == nil && now.Sub(pc.lastUse) >= p.cfg.PingInterval {
			pc.inflight++
			targets = append(targets, pc)
		}
	}
	p.syncGauges()
	p.mu.Unlock()
	for _, pc := range targets {
		timeout := pingTimeout
		if p.cfg.IOTimeout > 0 && p.cfg.IOTimeout < timeout {
			timeout = p.cfg.IOTimeout
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := pc.c.Ping(ctx)
		cancel()
		p.mu.Lock()
		pc.inflight--
		dead := err != nil
		if dead {
			for i, cur := range p.conns {
				if cur == pc {
					p.conns = append(p.conns[:i], p.conns[i+1:]...)
					break
				}
			}
		}
		p.syncGauges()
		p.mu.Unlock()
		if dead {
			pc.c.Close()
			cmPoolPings.With(p.cfg.Addr, "failed").Inc()
		} else {
			cmPoolPings.With(p.cfg.Addr, "ok").Inc()
		}
	}
}
