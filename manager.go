package privehd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"

	"privehd/internal/admin"
	"privehd/internal/hdc"
	"privehd/internal/metrics"
	"privehd/internal/registry"
	"privehd/internal/store"
)

// mRollbacks counts explicit rollbacks through the manager, per model —
// the "how often did we have to back out a deploy" alarm signal, distinct
// from privehd_model_active_version simply moving backwards.
var mRollbacks = metrics.Default.NewCounterVec(
	"privehd_model_rollbacks_total",
	"Explicit model rollbacks through the manager, by model name.",
	"model")

// Store-related sentinel errors, surfaced by Manager methods; test with
// errors.Is. ErrCorruptModel (pipeline.go) covers corrupt blobs from both
// Load and the store's checksum verification.
var (
	// ErrBadModelName reports a model name the durable store refuses
	// (empty, path-traversing, or otherwise unfit for a directory name).
	ErrBadModelName = store.ErrBadName
	// ErrUnknownVersion reports an activate or rollback naming a version
	// the store does not hold.
	ErrUnknownVersion = store.ErrUnknownVersion
)

// mapStoreErr rewraps the store's private unknown-model sentinel into the
// public ErrUnknownModel, so callers test one sentinel whether a name was
// missing from the registry or from the store.
func mapStoreErr(err error) error {
	if errors.Is(err, store.ErrUnknownModel) {
		return fmt.Errorf("%w: %v", ErrUnknownModel, err)
	}
	return err
}

// ManagerOption configures OpenManager.
type ManagerOption func(*managerConfig)

type managerConfig struct {
	storeOpts []store.Option
	logger    *slog.Logger
}

// WithStoreRetain bounds how many versions the store keeps per model. By
// default there is no bound and every version is kept. With n > 0, when a
// Publish or Upload pushes a model past the limit, the oldest non-active
// versions are garbage-collected; n ≤ 0 keeps the default. The active
// version is never collected.
func WithStoreRetain(n int) ManagerOption {
	return func(c *managerConfig) { c.storeOpts = append(c.storeOpts, store.WithRetain(n)) }
}

// WithManagerLogger routes the manager's structured control-plane events
// (publish, upload, activate, rollback, deregister, default changes,
// restart replay) to the given logger. By default they are discarded.
func WithManagerLogger(log *slog.Logger) ManagerOption {
	return func(c *managerConfig) { c.logger = log }
}

// Manager binds one durable on-disk model store to one serving registry so
// every mutation is durable: each Publish, Upload, Activate, Rollback,
// Deregister and SetDefault commits to the store first and only then
// publishes to the registry (publish-after-persist), so a crash at any
// point never leaves the deployment advertising state that won't survive a
// restart. OpenManager replays the store into the registry, restoring the
// exact active versions and default of the last committed state.
//
// Manager implements the management-plane backend: hand it to ServeAdmin
// to expose upload/activate/rollback/list over HTTP.
type Manager struct {
	st  *store.Store
	reg *Registry
	log *slog.Logger
}

// OpenManager opens (creating if needed) the model store in dir and
// replays its committed state into reg: every model with an active version
// is loaded, checksum-verified and registered under its stored version
// number, and the stored default is restored — after a restart, clients
// see exactly the versions and default they saw before. Models staged but
// never activated stay dormant in the store. Corrupt active blobs fail the
// open (wrapping ErrCorruptModel) rather than silently serving less than
// the manifest promises.
func OpenManager(dir string, reg *Registry, opts ...ManagerOption) (*Manager, error) {
	if reg == nil {
		return nil, errors.New("privehd: OpenManager: registry must not be nil")
	}
	var cfg managerConfig
	for _, o := range opts {
		o(&cfg)
	}
	st, err := store.Open(dir, cfg.storeOpts...)
	if err != nil {
		return nil, fmt.Errorf("privehd: opening model store: %w", err)
	}
	log := cfg.logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := &Manager{st: st, reg: reg, log: log}
	for _, mod := range st.List() {
		if mod.Active == 0 {
			continue // staged only, never published
		}
		blob, version, err := st.Get(mod.Name)
		if err != nil {
			return nil, fmt.Errorf("privehd: replaying model %q: %w", mod.Name, err)
		}
		p, err := Load(bytes.NewReader(blob))
		if err != nil {
			return nil, fmt.Errorf("privehd: replaying model %q v%d: %w", mod.Name, version, err)
		}
		model, info, err := pipelineEntry(p)
		if err != nil {
			return nil, fmt.Errorf("privehd: replaying model %q v%d: %w", mod.Name, version, err)
		}
		if _, err := reg.inner.RegisterVersion(mod.Name, model, info, version); err != nil {
			return nil, fmt.Errorf("privehd: replaying model %q v%d: %w", mod.Name, version, err)
		}
		m.log.Info("model replayed from store", "model", mod.Name, "version", version)
	}
	// The stored default is the durable truth — including "none", which
	// must override the replay's first-Register auto-default.
	if st.Len() > 0 {
		if def := st.Default(); def != "" {
			if err := reg.SetDefault(def); err != nil {
				return nil, fmt.Errorf("privehd: restoring default %q: %w", def, err)
			}
		} else {
			reg.inner.ClearDefault()
		}
	}
	return m, nil
}

// Registry returns the serving registry behind the manager.
func (m *Manager) Registry() *Registry { return m.reg }

// Dir returns the store's root directory.
func (m *Manager) Dir() string { return m.st.Dir() }

// Publish persists a trained pipeline as the next version of name and
// activates it live: the blob is committed to the store first, then
// registered (first publication) or hot-swapped (later ones) in the
// registry under the same version number. It returns the assigned version.
func (m *Manager) Publish(name string, p *Pipeline) (int, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return 0, err
	}
	v, err := m.commit(name, buf.Bytes(), p, true)
	if err == nil {
		m.log.Info("model published", "model", name, "version", v, "bytes", buf.Len())
	}
	return v, err
}

// Upload stores blob — bytes previously produced by Pipeline.Save — as a
// new version of name, activating it live unless told to stage. The blob
// is fully validated (Load) before anything is written: corrupt bytes are
// rejected with ErrCorruptModel and never reach the store.
func (m *Manager) Upload(name string, blob []byte, activate bool) (int, error) {
	p, err := Load(bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	if !activate {
		v, err := m.st.Put(name, blob, false)
		if err == nil {
			m.log.Info("model staged", "model", name, "version", v, "bytes", len(blob))
		}
		return v, mapStoreErr(err)
	}
	v, err := m.commit(name, blob, p, true)
	if err == nil {
		m.log.Info("model uploaded and activated", "model", name, "version", v, "bytes", len(blob))
	}
	return v, err
}

// commit is the publish-after-persist write path: store the blob, mirror
// the registry's first-model auto-default into the store, then publish the
// loaded pipeline under the stored version.
func (m *Manager) commit(name string, blob []byte, p *Pipeline, activate bool) (int, error) {
	model, info, err := pipelineEntry(p)
	if err != nil {
		return 0, err
	}
	version, err := m.st.Put(name, blob, activate)
	if err != nil {
		return 0, err
	}
	return version, m.publish(name, model, info, version)
}

// publish pushes an already-persisted version into the registry,
// registering or swapping as needed and keeping the store's default in
// step with the registry's first-model auto-default.
func (m *Manager) publish(name string, model *hdc.Model, info registry.EncoderInfo, version int) error {
	if m.live(name) {
		_, err := m.reg.inner.SwapVersion(name, model, info, version)
		return err
	}
	// First publication of this name: Register auto-defaults into an empty
	// registry, so persist that choice before it becomes visible.
	if m.reg.DefaultName() == "" && m.st.Default() == "" {
		if err := m.st.SetDefault(name); err != nil {
			return err
		}
	}
	_, err := m.reg.inner.RegisterVersion(name, model, info, version)
	return err
}

// live reports whether name is currently served by the registry.
func (m *Manager) live(name string) bool {
	_, err := m.reg.inner.Lookup(name)
	return name != "" && err == nil
}

// Activate makes a stored version the active one — the store commits
// first, then the registry serves it (a fresh registration if the model
// was only staged until now). Rollbacks re-activate an older version the
// same way; the published version number follows the store, downwards
// included.
func (m *Manager) Activate(name string, version int) error {
	blob, err := m.st.GetVersion(name, version)
	if err != nil {
		return mapStoreErr(err)
	}
	p, err := Load(bytes.NewReader(blob))
	if err != nil {
		return err
	}
	model, info, err := pipelineEntry(p)
	if err != nil {
		return err
	}
	if err := m.st.Activate(name, version); err != nil {
		return mapStoreErr(err)
	}
	if err := m.publish(name, model, info, version); err != nil {
		return err
	}
	m.log.Info("model version activated", "model", name, "version", version)
	return nil
}

// Rollback activates the version preceding the currently active one,
// returning the version it landed on. In-flight queries against the
// rolled-back version finish normally; later frames score against the
// restored one.
func (m *Manager) Rollback(name string) (int, error) {
	prev, err := m.st.PreviousVersion(name)
	if err != nil {
		return 0, mapStoreErr(err)
	}
	if err := m.Activate(name, prev); err != nil {
		return 0, err
	}
	mRollbacks.With(name).Inc()
	m.log.Warn("model rolled back", "model", name, "version", prev)
	return prev, nil
}

// Deregister removes name from serving and deletes its store entry,
// history included. Queries in flight finish; new frames naming it are
// rejected.
func (m *Manager) Deregister(name string) error {
	if err := m.st.Remove(name); err != nil {
		return mapStoreErr(err)
	}
	if err := m.reg.Deregister(name); err != nil && !errors.Is(err, ErrUnknownModel) {
		return err // staged-only models were never live; that's fine
	}
	m.log.Info("model deregistered", "model", name)
	return nil
}

// SetDefault durably names the model served to clients that request none.
// The name must be both stored and live.
func (m *Manager) SetDefault(name string) error {
	if !m.live(name) {
		return fmt.Errorf("%w: %q is not live", ErrUnknownModel, name)
	}
	if err := m.st.SetDefault(name); err != nil {
		return mapStoreErr(err)
	}
	if err := m.reg.SetDefault(name); err != nil {
		return err
	}
	m.log.Info("default model changed", "model", name)
	return nil
}

// Status lists every model the deployment knows — durable version history
// from the store merged with live registry state and per-model served
// counters — sorted by name. Models registered directly on the registry
// (bypassing the manager) appear with an empty history.
func (m *Manager) Status() []admin.ModelStatus {
	entries, liveDefault := m.reg.inner.SnapshotModels()
	byName := make(map[string]*registry.Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	def := liveDefault
	if def == "" {
		def = m.st.Default()
	}
	stored := m.st.List()
	out := make([]admin.ModelStatus, 0, len(stored)+len(entries))
	seen := make(map[string]bool, len(stored))
	for _, mod := range stored {
		seen[mod.Name] = true
		ms := admin.ModelStatus{
			Name:          mod.Name,
			ActiveVersion: mod.Active,
			Default:       mod.Name == def,
			Versions:      make([]admin.VersionInfo, len(mod.Versions)),
		}
		for i, v := range mod.Versions {
			ms.Versions[i] = admin.VersionInfo{Version: v.Version, SHA256: v.SHA256, Size: v.Size, Created: v.Created}
		}
		if e, ok := byName[mod.Name]; ok {
			ms.Live = true
			ms.Served = e.Served()
			ms.Dim = e.Model.Dim()
			ms.Classes = e.Model.NumClasses()
		}
		out = append(out, ms)
	}
	for _, e := range entries {
		if seen[e.Name] {
			continue
		}
		out = append(out, admin.ModelStatus{
			Name:          e.Name,
			ActiveVersion: e.Version,
			Default:       e.Name == def,
			Live:          true,
			Served:        e.Served(),
			Dim:           e.Model.Dim(),
			Classes:       e.Model.NumClasses(),
			Versions:      []admin.VersionInfo{},
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
