package main

import (
	"errors"
	"sync/atomic"
	"time"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/ir"
	"fragdroid/internal/statics"
)

// Store entry kinds and the app payload's leading tag byte, as
// artifact.Cache writes them.
const (
	kindApp        = "app"
	kindExtraction = "extraction"
	kindIR         = "ir"
	appTagBuilt    = 'B'
	appTagPacked   = 'P'
)

// cacheMirror repeats artifact.Cache's lookup path one public call at a
// time — key, store read, decode, build, extract, encode, store write, lazy
// IR registration — so each call gets its own span. Its counters have
// artifact.Stats's meaning; the fidelity check compares them with a real
// Cache that served the same inputs, so a replay that drifts from the cache
// it imitates shows up as a mismatch.
type cacheMirror struct {
	tr    *tracer
	store *artifact.Store // nil: -cache off
	apps  map[string]appSlot
	exts  map[string]extSlot

	stats        artifact.Stats
	bytesRead    int64
	bytesWritten int64
}

type appSlot struct {
	app *apk.App
	err error
}

type extSlot struct {
	ex  *statics.Extraction
	err error
}

// newMirror opens the store at dir ("" for no store) inside an
// artifact.open span.
func newMirror(tr *tracer, dir string) (*cacheMirror, error) {
	m := &cacheMirror{tr: tr, apps: make(map[string]appSlot), exts: make(map[string]extSlot)}
	if dir != "" {
		id := tr.begin("artifact.open")
		st, err := artifact.OpenStore(dir)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		m.store = st
	}
	return m, nil
}

func (m *cacheMirror) key(spec *corpus.AppSpec) string {
	id := m.tr.begin("artifact.key")
	defer m.tr.end(id)
	return artifact.Key(spec)
}

func (m *cacheMirror) load(kind, key string) ([]byte, bool) {
	id := m.tr.begin("artifact.load")
	data, ok := m.store.Load(kind, key)
	m.tr.end(id)
	if ok {
		m.bytesRead += int64(len(data))
	}
	return data, ok
}

func (m *cacheMirror) save(kind, key string, payload []byte) error {
	id := m.tr.begin("artifact.save")
	err := m.store.Save(kind, key, payload)
	m.tr.end(id)
	if err == nil {
		m.bytesWritten += int64(len(payload))
	}
	return err
}

// App mirrors artifact.Cache.App.
func (m *cacheMirror) App(spec *corpus.AppSpec) (*apk.App, error) {
	key := m.key(spec)
	if s, ok := m.apps[key]; ok {
		m.stats.Hits++
		return s.app, s.err
	}
	m.stats.Misses++
	s := m.buildApp(spec, key)
	m.apps[key] = s
	return s.app, s.err
}

func (m *cacheMirror) buildApp(spec *corpus.AppSpec, key string) appSlot {
	if m.store != nil {
		if s, ok := m.loadApp(key); ok {
			if s.err == nil && s.app != nil {
				m.installIR(key, s.app)
			}
			return s
		}
	}
	m.stats.Builds++
	id := m.tr.begin("corpus.build")
	app, err := corpus.BuildApp(spec)
	m.tr.end(id)
	if m.store != nil {
		m.saveApp(key, app, err)
		if err == nil && app != nil {
			m.installIR(key, app)
		}
	}
	return appSlot{app, err}
}

func (m *cacheMirror) loadApp(key string) (appSlot, bool) {
	payload, ok := m.load(kindApp, key)
	if !ok || len(payload) == 0 {
		m.stats.DiskMisses++
		return appSlot{}, false
	}
	switch payload[0] {
	case appTagPacked:
		m.stats.DiskHits++
		return appSlot{err: apk.ErrPacked}, true
	case appTagBuilt:
		id := m.tr.begin("apk.decode")
		app, err := apk.DecodeApp(payload[1:])
		m.tr.end(id)
		if err != nil {
			m.stats.DiskMisses++
			return appSlot{}, false
		}
		m.stats.DiskHits++
		return appSlot{app: app}, true
	}
	m.stats.DiskMisses++
	return appSlot{}, false
}

func (m *cacheMirror) saveApp(key string, app *apk.App, buildErr error) {
	var payload []byte
	switch {
	case buildErr == nil:
		id := m.tr.begin("apk.encode")
		data, err := apk.EncodeApp(app)
		m.tr.end(id)
		if err != nil {
			m.stats.DiskErrors++
			return
		}
		payload = append([]byte{appTagBuilt}, data...)
	case errors.Is(buildErr, apk.ErrPacked):
		payload = []byte{appTagPacked}
	default:
		return
	}
	if err := m.save(kindApp, key, payload); err != nil {
		m.stats.DiskErrors++
		return
	}
	m.stats.DiskWrites++
}

// installIR parks the app's compiled program behind a lazy store read, as
// the cache does; the replay resolves it with ir.For inside an ir.install
// span, so the read, the decode or the compile land in that span.
func (m *cacheMirror) installIR(key string, app *apk.App) {
	ir.RegisterLazy(app,
		func() ([]byte, bool) { return m.load(kindIR, key) },
		func() { m.stats.IRHits++ },
		func(p *ir.Program) {
			m.stats.IRMisses++
			if err := m.save(kindIR, key, ir.Encode(p)); err != nil {
				m.stats.DiskErrors++
				return
			}
			m.stats.IRWrites++
		})
}

// Extraction mirrors artifact.Cache.Extraction.
func (m *cacheMirror) Extraction(spec *corpus.AppSpec) (*statics.Extraction, error) {
	key := m.key(spec)
	if s, ok := m.exts[key]; ok {
		m.stats.Hits++
		return s.ex, s.err
	}
	m.stats.Misses++
	s := m.extract(spec, key)
	m.exts[key] = s
	return s.ex, s.err
}

func (m *cacheMirror) extract(spec *corpus.AppSpec, key string) extSlot {
	app, err := m.App(spec)
	if err != nil {
		return extSlot{err: err}
	}
	if m.store != nil {
		if payload, ok := m.load(kindExtraction, key); ok {
			id := m.tr.begin("statics.decode")
			ex, err := statics.DecodeExtraction(payload, app)
			m.tr.end(id)
			if err == nil {
				m.stats.DiskHits++
				return extSlot{ex: ex}
			}
		}
		m.stats.DiskMisses++
	}
	m.stats.Extractions++
	id := m.tr.begin("statics.extract")
	ex, err := statics.Extract(app)
	m.tr.end(id)
	if m.store != nil && err == nil {
		id := m.tr.begin("statics.encode")
		payload, encErr := statics.EncodeExtraction(ex)
		m.tr.end(id)
		switch {
		case encErr != nil:
			m.stats.DiskErrors++
		case m.save(kindExtraction, key, payload) != nil:
			m.stats.DiskErrors++
		default:
			m.stats.DiskWrites++
		}
	}
	return extSlot{ex, err}
}

// Evict mirrors artifact.Cache.Evict.
func (m *cacheMirror) Evict(spec *corpus.AppSpec) {
	key := m.key(spec)
	delete(m.apps, key)
	delete(m.exts, key)
}

// timedSnapshots is the session.SnapshotStore the replay's memo writes
// through: the real store, with each pack read and write recorded as a span.
// The device fleet calls it from its own goroutines, hence record and the
// atomic byte counters.
type timedSnapshots struct {
	tr    *tracer
	store *artifact.Store
	read  atomic.Int64
	wrote atomic.Int64
}

func (s *timedSnapshots) LoadSnapshot(key string) ([]byte, bool) {
	start := time.Now()
	data, ok := s.store.LoadSnapshot(key)
	s.tr.record("artifact.snapshot_load", start)
	s.read.Add(int64(len(data)))
	return data, ok
}

func (s *timedSnapshots) SaveSnapshot(key string, payload []byte) error {
	start := time.Now()
	err := s.store.SaveSnapshot(key, payload)
	s.tr.record("artifact.snapshot_save", start)
	if err == nil {
		s.wrote.Add(int64(len(payload)))
	}
	return err
}
