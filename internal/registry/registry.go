// Package registry holds the named, versioned models a serving deployment
// publishes behind one listener — the "model registry keyed in the
// handshake" scaling step of the offload path. A production MLaaS host
// serves many Prive-HD models (different datasets, geometries, privacy
// budgets) and updates them live; the registry makes both safe:
//
//   - Reads never block and never see a half-updated registry: the whole
//     name→entry view lives behind one atomic.Pointer snapshot (RCU).
//     Writers copy the map, mutate the copy and publish it with a single
//     atomic swap; a query that resolved an entry keeps using that model
//     for as long as it holds the pointer, even if the entry is swapped or
//     deregistered mid-flight.
//   - Every entry carries its model's public encoder setup (encoding,
//     levels, seed, features — shared setup per the paper, not a secret)
//     so the protocol handshake can advertise it and edges can
//     auto-configure.
//
// Swap bumps a per-name version counter, letting clients observe hot model
// updates across requests without reconnecting.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"privehd/internal/hdc"
	"privehd/internal/intscore"
)

// ErrUnknownModel reports a lookup, swap or deregistration of a model name
// the registry does not hold (or an empty name when no default is set).
// Test with errors.Is.
var ErrUnknownModel = errors.New("registry: unknown model")

// EncoderInfo is the public encoder setup of a served model — everything an
// edge needs to build a compatible encoder. Base and level hypervectors are
// deterministic in the seed, so advertising this leaks nothing the paper
// keeps secret (the training data is what DP protects).
type EncoderInfo struct {
	// Encoding is the paper encoding as an integer (privehd.Encoding
	// value: 0 level, 1 scalar). Kept as a plain int so the registry does
	// not depend on the pipeline layer above it.
	Encoding int
	// Levels is the feature quantization level count ℓ_iv.
	Levels int
	// Features is the input dimensionality D_iv.
	Features int
	// Seed is the shared encoder seed.
	Seed uint64
}

// Zero reports whether no encoder setup was recorded (a bare-model entry;
// the handshake then advertises geometry only and edges cannot
// auto-configure against it).
func (i EncoderInfo) Zero() bool {
	return i == EncoderInfo{}
}

// ShardInfo describes the slice of a logical model an entry serves when one
// model is split across a replica fleet: the entry's model holds dimensions
// [DimOffset, DimOffset+DimLen) of classes [ClassOffset,
// ClassOffset+ClassCount) of a full FullDim × FullClasses model. A nil
// *ShardInfo means the entry serves the whole model. The descriptor is
// advertised in the protocol handshake so scatter–gather coordinators
// can discover fleet geometry instead of being configured with it.
type ShardInfo struct {
	DimOffset   int
	DimLen      int
	ClassOffset int
	ClassCount  int
	FullDim     int
	FullClasses int
}

// Validate checks internal consistency: positive extents inside the full
// geometry.
func (s *ShardInfo) Validate() error {
	if s == nil {
		return nil
	}
	if s.FullDim <= 0 || s.FullClasses <= 0 {
		return fmt.Errorf("registry: shard full geometry %d×%d must be positive", s.FullDim, s.FullClasses)
	}
	if s.DimOffset < 0 || s.DimLen <= 0 || s.DimOffset+s.DimLen > s.FullDim {
		return fmt.Errorf("registry: shard dims [%d:%d) outside full dim %d",
			s.DimOffset, s.DimOffset+s.DimLen, s.FullDim)
	}
	if s.ClassOffset < 0 || s.ClassCount <= 0 || s.ClassOffset+s.ClassCount > s.FullClasses {
		return fmt.Errorf("registry: shard classes [%d:%d) outside full class count %d",
			s.ClassOffset, s.ClassOffset+s.ClassCount, s.FullClasses)
	}
	return nil
}

// fits checks that model has exactly the descriptor's slice extents (any
// model fits a nil descriptor).
func (s *ShardInfo) fits(model *hdc.Model) error {
	if s != nil && (model.Dim() != s.DimLen || model.NumClasses() != s.ClassCount) {
		return fmt.Errorf("registry: model geometry %d×%d does not match shard slice %s",
			model.Dim(), model.NumClasses(), s)
	}
	return nil
}

// Whole reports whether the descriptor covers the entire model (or is nil).
func (s *ShardInfo) Whole() bool {
	return s == nil || (s.DimOffset == 0 && s.DimLen == s.FullDim &&
		s.ClassOffset == 0 && s.ClassCount == s.FullClasses)
}

// String renders the descriptor in the privehd-serve -shard flag syntax.
func (s *ShardInfo) String() string {
	if s == nil {
		return "whole"
	}
	return fmt.Sprintf("dim=%d:%d,class=%d:%d of %d×%d",
		s.DimOffset, s.DimOffset+s.DimLen, s.ClassOffset, s.ClassOffset+s.ClassCount,
		s.FullDim, s.FullClasses)
}

// Entry is one named, versioned served model. Entries are immutable once
// published: Swap publishes a new Entry rather than mutating the old one,
// so an Entry resolved by an in-flight query stays valid forever.
type Entry struct {
	// Name is the registry key carried in the protocol handshake.
	Name string
	// Version counts publications under this name: 1 on Register, +1 per
	// Swap. It is advertised in the handshake so clients can observe hot
	// updates.
	Version int
	// Model is the served model. The registry precomputes its norm caches
	// at publication; it must not be mutated afterwards.
	Model *hdc.Model
	// Scorer is the integer-domain scoring engine for packed queries,
	// derived from Model at publication together with the norm caches;
	// every published entry has one. It is immutable like the rest of the
	// entry, so a query that resolved this entry can never score against
	// half-prepared planes however the registry changes mid-flight.
	Scorer *intscore.Engine
	// Encoder is the model's public encoder setup (may be zero for
	// bare-model entries).
	Encoder EncoderInfo
	// Shard, when non-nil, marks this entry as serving a slice of a larger
	// logical model and records which slice (see ShardInfo). Advertised in
	// the handshake.
	Shard *ShardInfo

	// served counts queries answered under this name across publications:
	// Register creates the counter, Swap carries it into the new entry, so
	// it measures the name's lifetime traffic rather than one version's.
	served *atomic.Uint64
}

// AddServed records n more queries answered against this entry's model.
func (e *Entry) AddServed(n int) {
	if n > 0 {
		e.served.Add(uint64(n))
	}
}

// Served returns how many queries have been answered under this entry's
// name since it was first registered (hot swaps do not reset it).
func (e *Entry) Served() uint64 { return e.served.Load() }

// snapshot is one immutable RCU view of the registry.
type snapshot struct {
	entries     map[string]*Entry
	defaultName string
}

// Registry is a concurrent model registry. The zero value is not usable;
// call New. Lookups are lock-free; Register/Swap/Deregister/SetDefault
// serialize among themselves but never block lookups or in-flight queries.
type Registry struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[snapshot]
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{}
	r.snap.Store(&snapshot{entries: map[string]*Entry{}})
	return r
}

// clone copies the current snapshot for copy-on-write mutation. Callers
// must hold r.mu.
func (r *Registry) clone() *snapshot {
	cur := r.snap.Load()
	next := &snapshot{
		entries:     make(map[string]*Entry, len(cur.entries)+1),
		defaultName: cur.defaultName,
	}
	for name, e := range cur.entries {
		next.entries[name] = e
	}
	return next
}

// publish installs the snapshot. Callers must hold r.mu.
func (r *Registry) publish(next *snapshot) { r.snap.Store(next) }

// Register publishes a new model under name. The first registered model
// becomes the default (what clients that name no model are served) unless
// SetDefault chose another. Registering an existing name is an error — use
// Swap to update a live model.
func (r *Registry) Register(name string, model *hdc.Model, info EncoderInfo) (*Entry, error) {
	return r.RegisterVersion(name, model, info, 1)
}

// RegisterVersion is Register with an explicit starting version — the hook
// a durable store uses to replay its persisted version numbers after a
// restart, so handshakes advertise the same version before and after.
func (r *Registry) RegisterVersion(name string, model *hdc.Model, info EncoderInfo, version int) (*Entry, error) {
	return r.RegisterShardVersion(name, model, info, version, nil)
}

// RegisterShard publishes a model that serves only a slice of a larger
// logical model, carrying the shard descriptor into the handshake. The
// model's geometry must match the descriptor's slice extents.
func (r *Registry) RegisterShard(name string, model *hdc.Model, info EncoderInfo, shard *ShardInfo) (*Entry, error) {
	return r.RegisterShardVersion(name, model, info, 1, shard)
}

// RegisterShardVersion is RegisterShard with an explicit starting version.
func (r *Registry) RegisterShardVersion(name string, model *hdc.Model, info EncoderInfo, version int, shard *ShardInfo) (*Entry, error) {
	if name == "" {
		return nil, errors.New("registry: model name must not be empty")
	}
	if model == nil {
		return nil, errors.New("registry: model must not be nil")
	}
	if version < 1 {
		return nil, fmt.Errorf("registry: version must be at least 1, got %d", version)
	}
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	if err := shard.fits(model); err != nil {
		return nil, err
	}
	if err := freeze(model); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	if _, exists := next.entries[name]; exists {
		return nil, fmt.Errorf("registry: model %q already registered (use Swap to update it)", name)
	}
	e := &Entry{Name: name, Version: version, Model: model, Scorer: model.PackedScorer(), Encoder: info, Shard: shard, served: new(atomic.Uint64)}
	next.entries[name] = e
	if next.defaultName == "" {
		next.defaultName = name
	}
	r.publish(next)
	rmPublications.With(name).Inc()
	rmActiveVersion.With(name).Set(int64(version))
	return e, nil
}

// freeze precomputes model's norm caches and integer scoring engine, so
// serving goroutines only ever read, and refuses a model with a
// non-finite class coordinate, which has no engine.
func freeze(model *hdc.Model) error {
	model.Precompute()
	if model.PackedScorer() == nil {
		return errors.New("registry: model has a non-finite class coordinate")
	}
	return nil
}

// Swap atomically replaces the model published under name, bumping its
// version. In-flight queries that already resolved the old entry finish
// against the old model; every later lookup sees the new one. Connections
// are never dropped. A shard entry keeps its descriptor, so the new model
// must have the slice's geometry. It returns ErrUnknownModel if name was
// never registered.
func (r *Registry) Swap(name string, model *hdc.Model, info EncoderInfo) (*Entry, error) {
	return r.SwapVersion(name, model, info, 0)
}

// SwapVersion is Swap with an explicit published version (0 means bump the
// old version by one, as Swap does). A durable store uses it so the live
// version always equals the persisted one — including rollbacks, where the
// published version moves backwards.
func (r *Registry) SwapVersion(name string, model *hdc.Model, info EncoderInfo, version int) (*Entry, error) {
	if model == nil {
		return nil, errors.New("registry: model must not be nil")
	}
	if version < 0 {
		return nil, fmt.Errorf("registry: version must be non-negative, got %d", version)
	}
	if err := freeze(model); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	old, exists := next.entries[name]
	if !exists {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if err := old.Shard.fits(model); err != nil {
		return nil, err
	}
	if version == 0 {
		version = old.Version + 1
	}
	e := &Entry{Name: name, Version: version, Model: model, Scorer: model.PackedScorer(), Encoder: info, Shard: old.Shard, served: old.served}
	next.entries[name] = e
	r.publish(next)
	rmPublications.With(name).Inc()
	rmActiveVersion.With(name).Set(int64(version))
	return e, nil
}

// Deregister removes the model published under name. In-flight queries
// holding its entry finish normally; new handshakes and new frames naming
// it are rejected. If name was the default, the registry is left with no
// default until SetDefault (or the next Register) chooses one.
func (r *Registry) Deregister(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	if _, exists := next.entries[name]; !exists {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	delete(next.entries, name)
	if next.defaultName == name {
		next.defaultName = ""
	}
	r.publish(next)
	// Retire the gauge series with the model: a scrape must not keep
	// reporting an active version for a model no client can reach.
	rmActiveVersion.Delete(name)
	return nil
}

// SetDefault names the model served to clients that request none.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	if _, exists := next.entries[name]; !exists {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	next.defaultName = name
	r.publish(next)
	return nil
}

// ClearDefault leaves the registry with no default model, so clients that
// name none are rejected until SetDefault (or the next Register) chooses
// one. A store replaying persisted state uses it to restore an explicit
// "no default" exactly, overriding Register's first-model auto-default.
func (r *Registry) ClearDefault() {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	next.defaultName = ""
	r.publish(next)
}

// DefaultName returns the current default model name ("" when unset).
func (r *Registry) DefaultName() string { return r.snap.Load().defaultName }

// Lookup resolves a requested model name to its current entry. The empty
// name resolves to the default model. The returned entry is an immutable
// snapshot: it stays valid (and its model consistent) however the registry
// changes afterwards.
func (r *Registry) Lookup(name string) (*Entry, error) {
	snap := r.snap.Load()
	if name == "" {
		name = snap.defaultName
		if name == "" {
			return nil, fmt.Errorf("%w: no default model registered", ErrUnknownModel)
		}
	}
	e, ok := snap.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e, nil
}

// Models returns the current entries sorted by name — one consistent
// snapshot, not a live view.
func (r *Registry) Models() []*Entry {
	entries, _ := r.SnapshotModels()
	return entries
}

// SnapshotModels returns the entries sorted by name together with the
// default model name, both read from the same snapshot — so a listing can
// flag the default without racing a concurrent SetDefault between two
// separate loads.
func (r *Registry) SnapshotModels() ([]*Entry, string) {
	snap := r.snap.Load()
	out := make([]*Entry, 0, len(snap.entries))
	for _, e := range snap.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, snap.defaultName
}

// Len returns the number of registered models.
func (r *Registry) Len() int { return len(r.snap.Load().entries) }
