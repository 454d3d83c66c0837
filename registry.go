package privehd

import (
	"context"
	"fmt"
	"net"

	"privehd/internal/hdc"
	"privehd/internal/offload"
	"privehd/internal/registry"
)

// DefaultModelName is the name a single-pipeline server (NewServer, Serve)
// publishes its model under, and what clients that request no model are
// served.
const DefaultModelName = offload.DefaultModelName

// ErrUnknownModel reports a dial or request naming a model the serving
// registry does not hold (or an empty name when no default is set); it is
// also what Registry methods return for unknown names. Test with errors.Is.
var ErrUnknownModel = offload.ErrUnknownModel

// Registry publishes named, hot-swappable pipelines for multi-model
// serving: many models behind one listener, selected by the model name in
// the protocol handshake, updated live with Swap.
//
// All methods are safe for concurrent use, and none of the mutations —
// Register, Swap, Deregister, SetDefault — ever block or fail queries in
// flight: the registry view is one atomic snapshot (RCU), so a query keeps
// the model publication it resolved while later frames see the update.
type Registry struct {
	inner *registry.Registry
}

// NewRegistry returns an empty model registry. Serve it with ServeRegistry
// and register pipelines before or after serving starts — handshakes
// resolve names against the live registry.
func NewRegistry() *Registry {
	return &Registry{inner: registry.New()}
}

// ModelInfo describes one published model: its registry identity and the
// public encoder setup advertised in the handshake.
type ModelInfo struct {
	// Name is the registry key clients put in the handshake.
	Name string
	// Version counts publications under Name: 1 on Register, +1 per Swap.
	Version int
	// Dim and Classes are the served model's geometry.
	Dim     int
	Classes int
	// Encoding, Levels, Features and Seed are the encoder's shared public
	// setup, which edges auto-configure from.
	Encoding Encoding
	Levels   int
	Features int
	Seed     uint64
	// Default marks the model served to clients that name none.
	Default bool
}

// modelInfosFromListings converts a wire registry listing (Client
// ListModels) to the public ModelInfo shape.
func modelInfosFromListings(listings []offload.ModelListing) []ModelInfo {
	out := make([]ModelInfo, len(listings))
	for i, l := range listings {
		out[i] = ModelInfo{
			Name:     l.Name,
			Version:  l.Version,
			Dim:      l.Dim,
			Classes:  l.Classes,
			Encoding: Encoding(l.Encoding),
			Levels:   l.Levels,
			Features: l.Features,
			Seed:     l.Seed,
			Default:  l.Default,
		}
	}
	return out
}

// pipelineEntry extracts the served model and its public encoder setup from
// a trained pipeline.
func pipelineEntry(p *Pipeline) (*hdc.Model, registry.EncoderInfo, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.model == nil {
		return nil, registry.EncoderInfo{}, ErrNotTrained
	}
	return p.model, registry.EncoderInfo{
		Encoding: int(p.cfg.encoding),
		Levels:   p.cfg.levels,
		Features: p.cfg.features,
		Seed:     p.cfg.seed,
	}, nil
}

// Register publishes a trained pipeline's model under name. The first
// registered model becomes the default unless SetDefault chooses another.
// Registering an existing name is an error — Swap is the live-update path.
// The pipeline's model must not be retrained while published; Train and
// TrainOnline both build a fresh model, so the idiom for updates is
// retrain-then-Swap.
func (r *Registry) Register(name string, p *Pipeline) error {
	model, info, err := pipelineEntry(p)
	if err != nil {
		return err
	}
	_, err = r.inner.Register(name, model, info)
	return err
}

// RegisterShard publishes a slice of a trained pipeline's model under
// name: the class planes are restricted to s's dimension range and class
// range (zero DimLen / ClassCount default to the full extent), and the
// entry carries the shard descriptor so clients — and the scatter–
// gather coordinator behind TopologySharded — discover the slice in the
// handshake. Each replica of a sharded fleet registers its own slice;
// the fleet's descriptors must tile the full model exactly or Connect
// refuses with ErrShardTiling.
func (r *Registry) RegisterShard(name string, p *Pipeline, s ShardSlice) error {
	model, info, err := pipelineEntry(p)
	if err != nil {
		return err
	}
	if s.DimLen == 0 {
		s.DimOffset, s.DimLen = 0, model.Dim()
	}
	if s.ClassCount == 0 {
		s.ClassOffset, s.ClassCount = 0, model.NumClasses()
	}
	shardInfo := &registry.ShardInfo{
		DimOffset:   s.DimOffset,
		DimLen:      s.DimLen,
		ClassOffset: s.ClassOffset,
		ClassCount:  s.ClassCount,
		FullDim:     model.Dim(),
		FullClasses: model.NumClasses(),
	}
	if err := shardInfo.Validate(); err != nil {
		return err
	}
	sliced := model.Slice(s.DimOffset, s.DimLen, s.ClassOffset, s.ClassCount)
	_, err = r.inner.RegisterShard(name, sliced, info, shardInfo)
	return err
}

// Swap atomically replaces the model published under name with the
// pipeline's, bumping the publication version. Clients connected to name
// see the new model from their next request frame on — connections are
// never dropped, and queries in flight finish against the model they
// resolved. An entry published with RegisterShard stays a shard: the new
// pipeline is sliced by the entry's descriptor, and refused unless its
// full geometry is the descriptor's. It returns ErrUnknownModel if name
// was never registered.
func (r *Registry) Swap(name string, p *Pipeline) error {
	model, info, err := pipelineEntry(p)
	if err != nil {
		return err
	}
	old, err := r.inner.Lookup(name)
	if err != nil {
		return err
	}
	if s := old.Shard; s != nil {
		if model.Dim() != s.FullDim || model.NumClasses() != s.FullClasses {
			return fmt.Errorf("privehd: model %q is a shard of a %d×%d model, pipeline is %d×%d",
				name, s.FullDim, s.FullClasses, model.Dim(), model.NumClasses())
		}
		model = model.Slice(s.DimOffset, s.DimLen, s.ClassOffset, s.ClassCount)
	}
	_, err = r.inner.Swap(name, model, info)
	return err
}

// Deregister removes the model published under name. Connections bound to
// it stay open but their frames are answered with ErrUnknownModel until
// the name is registered again. If name was the default, the registry has
// no default until SetDefault (or the next Register) chooses one.
func (r *Registry) Deregister(name string) error { return r.inner.Deregister(name) }

// SetDefault names the model served to clients that request none.
func (r *Registry) SetDefault(name string) error { return r.inner.SetDefault(name) }

// DefaultName returns the current default model name ("" when unset).
func (r *Registry) DefaultName() string { return r.inner.DefaultName() }

// Models returns one consistent snapshot of the published models, sorted
// by name.
func (r *Registry) Models() []ModelInfo {
	entries, def := r.inner.SnapshotModels()
	out := make([]ModelInfo, len(entries))
	for i, e := range entries {
		out[i] = ModelInfo{
			Name:     e.Name,
			Version:  e.Version,
			Dim:      e.Model.Dim(),
			Classes:  e.Model.NumClasses(),
			Encoding: Encoding(e.Encoder.Encoding),
			Levels:   e.Encoder.Levels,
			Features: e.Encoder.Features,
			Seed:     e.Encoder.Seed,
			Default:  e.Name == def,
		}
	}
	return out
}

// Len returns the number of published models.
func (r *Registry) Len() int { return r.inner.Len() }

// NewRegistryServer wraps a registry for serving. The registry may start
// empty and keep changing while the server runs.
func NewRegistryServer(r *Registry, opts ...ServerOption) *Server {
	return &Server{inner: offload.NewRegistryServer(r.inner, opts...), reg: r}
}

// ServeRegistry hosts a model registry on lis until ctx is cancelled — the
// multi-model, hot-swappable big sibling of Serve. Clients pick a model
// with Target.Model; those that name none get the default.
func ServeRegistry(ctx context.Context, lis net.Listener, r *Registry, opts ...ServerOption) error {
	return NewRegistryServer(r, opts...).Serve(ctx, lis)
}
