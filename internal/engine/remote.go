package engine

import (
	"context"
)

// This file is the engine's remote-dispatch surface for cluster mode: a
// hook consulted on every cache miss that may answer the request from the
// replica that owns its canonical key instead of computing locally. The
// hook slots inside the singleflight group, so concurrent identical
// queries share one network hop exactly as they share one computation,
// and a result fetched remotely primes the local cache so the next
// identical query is a local hit.

// RemoteFunc is the cluster dispatch hook. It receives the normalized
// request and its canonical key and reports one of three outcomes:
//
//   - handled=true, err=nil: res was produced by the owning replica; the
//     engine caches it and returns it as a non-cached answer.
//   - handled=true, err!=nil: the remote path owned the request but could
//     not answer in time (context expired mid-hop); the error surfaces to
//     the caller unchanged.
//   - handled=false: compute locally — either this replica owns the key,
//     or the owner is unreachable and the dispatcher chose graceful
//     degradation over failure (it does its own retry/hedge/failover
//     accounting before giving up).
type RemoteFunc func(ctx context.Context, key string, req Request) (res *Result, handled bool, err error)

// SetRemote installs (or, with nil, removes) the remote-dispatch hook.
// Safe to call while the engine is serving.
func (e *Engine) SetRemote(fn RemoteFunc) {
	if fn == nil {
		e.remote.Store((*remoteBox)(nil))
		return
	}
	e.remote.Store(&remoteBox{fn: fn})
}

// remoteBox wraps the hook for atomic.Pointer storage.
type remoteBox struct{ fn RemoteFunc }

// remoteFn loads the installed hook, or nil.
func (e *Engine) remoteFn() RemoteFunc {
	if b := e.remote.Load(); b != nil {
		return b.fn
	}
	return nil
}

// localOnlyKey marks a context as "compute here, never re-dispatch": the
// serving layer stamps it on requests that already took a cluster hop
// (X-Forwarded-Admit), so an ownership disagreement during a ring
// transition cannot bounce a request between replicas forever. DoBatch
// stamps it too: batch rows are answered by the ingress replica.
type localOnlyKey struct{}

// WithLocalOnly returns a context whose requests bypass the remote hook.
func WithLocalOnly(ctx context.Context) context.Context {
	return context.WithValue(ctx, localOnlyKey{}, true)
}

// localOnly reports whether the context forbids remote dispatch.
func localOnly(ctx context.Context) bool {
	v, _ := ctx.Value(localOnlyKey{}).(bool)
	return v
}

// dispatch answers a cache miss: the remote hook first (when installed
// and permitted), local computation otherwise. Runs inside the
// singleflight group, so one network hop serves every concurrent
// identical query.
func (e *Engine) dispatch(ctx context.Context, key string, norm Request) (*Result, error) {
	if fn := e.remoteFn(); fn != nil && !localOnly(ctx) {
		res, handled, err := fn(ctx, key, norm)
		if handled {
			if err != nil {
				return nil, err
			}
			e.remoteHits.Inc()
			// Prime so the next identical query is a local cache hit —
			// proxied results are as authoritative as local ones (both
			// replicas run the same deterministic computation).
			e.cache.Add(key, res)
			return res, nil
		}
	}
	return e.computeAndCache(ctx, key, norm)
}
