package privehd

import (
	"context"
	"fmt"

	"privehd/internal/intscore"
	"privehd/internal/offload"
	"privehd/internal/registry"
	"privehd/internal/shard"
)

// Sharded-serving errors; test with errors.Is.
var (
	// ErrPartialUnsupported reports a sharded client asked to carry
	// full-precision (WithRawQueries) queries: partial scores are exact
	// integer dots, defined for packed queries only, though every served
	// model answers those. A sharded Connect refuses such an edge up
	// front with this error. From a live server it is a protocol verdict
	// — never retried, every replica would refuse the same way.
	ErrPartialUnsupported = offload.ErrPartialUnsupported
	// ErrShardTiling reports a replica set whose shard descriptors do
	// not tile the full model exactly (gaps, overlaps, or disagreeing
	// geometry), or a replica whose partial-score answer no longer
	// matches the descriptor it advertised — a deployment configuration
	// error, not a transport failure.
	ErrShardTiling = shard.ErrBadTiling
)

// ShardSlice names the slice of a logical model one replica serves: a
// dimension range of every class plane, a class range, or both. Zero
// DimLen means the full dimension range; zero ClassCount means every
// class.
type ShardSlice struct {
	DimOffset, DimLen       int
	ClassOffset, ClassCount int
}

// ShardInfo is a replica's shard descriptor as advertised in the
// handshake: its slice plus the full logical geometry it came from.
type ShardInfo = registry.ShardInfo

// shardBackend serves whole-model predictions from a fleet of partial
// replicas: each packed query is scattered by dimension slice to every
// shard group, the groups' exact integer partial scores are gathered and
// reduced, and the argmax is taken over whole-model scores — bit-identical
// to serving the unsplit model (see internal/shard for the exactness
// argument). Replicas serving the same slice form a failover group, so a
// replica dying mid-gather retries only its own shard.
type shardBackend struct{ co *shard.Coordinator }

// errUnpacked refuses a full-precision query: partial scores are exact
// integer dot products, defined only for packed symbols.
var errUnpacked = fmt.Errorf("%w: query is not quantized (WithRawQueries is incompatible with sharded serving)",
	ErrPartialUnsupported)

func (b shardBackend) Classify(ctx context.Context, q offload.Query) (int, []float64, error) {
	if q.Packed.Bits == nil {
		return 0, nil, errUnpacked
	}
	return b.co.PredictPacked(ctx, q.Packed)
}

func (b shardBackend) ClassifyBatch(ctx context.Context, qs []offload.Query) ([]int, error) {
	packed := make([]intscore.Planes, len(qs))
	for i, q := range qs {
		if q.Packed.Bits == nil {
			return nil, errUnpacked
		}
		packed[i] = q.Packed
	}
	labels, _, err := b.co.PredictPackedBatch(ctx, packed)
	return labels, err
}

func (b shardBackend) ListModels(ctx context.Context) ([]offload.ModelListing, error) {
	return b.co.ListModels(ctx)
}

func (b shardBackend) Close() error { return b.co.Close() }
