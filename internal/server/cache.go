package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dynaq/internal/telemetry"
)

// CacheKey returns the content address of one result cell. Every input that
// can change the artifact bytes is part of the key — the scenario document
// hash, the (scheme, seed) overrides applied on top of it, the simulation
// engine fidelity (the same scenario at flow level is a different result
// than at packet level), and the build version (two builds may legitimately
// disagree about a result, so an upgrade must never serve stale bytes).
// Nothing else goes in: in particular no wall-clock component, which is what
// makes a resubmission tomorrow hit today's cache.
func CacheKey(version, scenarioHash, scheme, engine string, seed int64) string {
	if engine == "" {
		engine = "packet"
	}
	canonical := "dynaqd-cell\nversion=" + version +
		"\nscenario=" + scenarioHash +
		"\nscheme=" + scheme +
		"\nengine=" + engine +
		"\nseed=" + strconv.FormatInt(seed, 10) + "\n"
	return telemetry.Hash([]byte(canonical))
}

// cellDir is the cached artifact directory for a cache key, fanned out over
// a two-hex-digit prefix so one directory never accumulates every result.
func (s *Server) cellDir(key string) string {
	return filepath.Join(s.cfg.DataDir, "cache", key[:2], key)
}

// tmpDir is the in-progress artifact directory for a local cell run; a
// completed run is promoted into cellDir with a rename, so a cache
// directory is always complete or absent, never half-written.
func (s *Server) tmpDir(key string) string {
	return filepath.Join(s.cfg.DataDir, "tmp", key)
}

// artifactCached reports whether a complete artifact exists for the key.
// The manifest is written by telemetry.Run's Close, so its presence proves
// the whole directory landed (promotion is an atomic rename).
func (s *Server) artifactCached(key string) bool {
	_, err := os.Stat(filepath.Join(s.cellDir(key), telemetry.ManifestFile))
	return err == nil
}

// promote atomically moves a finished artifact directory into the cache.
// If the destination already exists, a previous run completed it and our
// bytes are identical by determinism, so keeping either copy is correct.
func (s *Server) promote(tmp, final string) error {
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		if _, statErr := os.Stat(filepath.Join(final, telemetry.ManifestFile)); statErr != nil {
			os.RemoveAll(tmp)
			return err
		}
		os.RemoveAll(tmp)
	}
	return nil
}

// maxUploadBytes bounds a worker's completion upload. A cell artifact is a
// few JSONL files; anything past this is corrupt or hostile.
const maxUploadBytes = 8 << 20

// absorbUpload writes a worker-uploaded artifact into the content-addressed
// cache: stage the files in a fresh tmp directory, then promote with the
// same atomic rename as a local run. It validates names (flat directory,
// no separators) and requires the manifest, so a truncated upload can never
// masquerade as a complete artifact. Absorption is keyed purely by content
// address — it is correct even when the uploading worker's lease has
// already expired, which is how late uploads stay useful (the requeued
// attempt cache-hits these bytes).
func (s *Server) absorbUpload(key string, files map[string][]byte) error {
	if len(files) == 0 {
		return fmt.Errorf("empty artifact upload")
	}
	if _, ok := files[telemetry.ManifestFile]; !ok {
		return fmt.Errorf("artifact upload lacks %s", telemetry.ManifestFile)
	}
	total := 0
	for name, data := range files {
		if name == "" || name == "." || name == ".." ||
			strings.ContainsAny(name, "/\\") {
			return fmt.Errorf("invalid artifact file name %q", name)
		}
		total += len(data)
	}
	if total > maxUploadBytes {
		return fmt.Errorf("artifact upload of %d bytes exceeds the %d limit", total, maxUploadBytes)
	}
	if s.artifactCached(key) {
		return nil // deterministic duplicate; either copy is the right bytes
	}
	// Stage under tmp/ with a unique name so a concurrent local run of the
	// same key (using tmpDir) cannot collide; orphans are swept at startup.
	tmp, err := os.MkdirTemp(filepath.Join(s.cfg.DataDir, "tmp"), "upload-")
	if err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			os.RemoveAll(tmp)
			return err
		}
	}
	return s.promote(tmp, s.cellDir(key))
}
