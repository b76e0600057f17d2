package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"eruca/internal/errfs"
)

// This file is the daemon's durability layer: an append-only write-ahead
// journal of job lifecycle records plus a checkpoint blob store. The
// journal makes submissions survive a crash — on boot the daemon replays
// it, restores terminal jobs (so clients can still GET their results),
// re-enqueues everything that had not finished, and remembers
// idempotency keys so a client that retries a POST after the crash gets
// its original job back instead of a duplicate. The blob store holds the
// latest simulation checkpoint per simulation key; a recovered job's
// simulations resume from there instead of cycle zero (the resumed run
// is cycle-accurate, see sim.Resume).
//
// Journal format: one JSON record per line. Every record carries a
// strictly increasing LSN and a CRC32 over its own canonical encoding
// (computed with the crc field empty). Replay stops at the first record
// that fails to parse, fails its CRC, or regresses the LSN — everything
// from there on is a torn tail from a crash mid-write, and the file is
// truncated back to the last good record so the journal stays
// append-clean.
//
// All disk access goes through an errfs.FS so chaos tests can inject the
// failures real disks produce (ENOSPC mid-append, failed fsync, torn
// writes, post-rename bit rot) and assert the daemon degrades to
// read-only instead of corrupting state.

// ClusterRecord is one cluster-state journal entry: the coordinator
// journals membership changes (join/evict), job placements learned from
// heartbeats, and eviction-time migrations, so a restarted coordinator
// reconstructs the ring, the lease table, and the in-flight placement
// map from its own WAL — the same replay-on-boot contract jobs have.
type ClusterRecord struct {
	Kind  string   `json:"kind"` // join | evict | place | unplace | migrate
	Node  string   `json:"node,omitempty"`
	Addr  string   `json:"addr,omitempty"` // node's public API address
	Peer  string   `json:"peer,omitempty"` // node's peer (cluster) address
	Epoch int64    `json:"epoch,omitempty"`
	Job   string   `json:"job,omitempty"`    // cluster-wide job ID (owner-prefixed)
	NewID string   `json:"new_id,omitempty"` // migrate: the survivor's job ID
	Hash  string   `json:"hash,omitempty"`
	Idem  string   `json:"idem,omitempty"`
	Spec  *JobSpec `json:"spec,omitempty"`
	Trace string   `json:"trace,omitempty"` // place: the job's traceparent
}

// walRecord is one journal line.
type walRecord struct {
	LSN  int64    `json:"lsn"`
	Type string   `json:"type"` // submit | start | checkpoint | finish | reject | interrupted | cluster
	Job  string   `json:"job,omitempty"`
	Idem string   `json:"idem,omitempty"`
	Spec *JobSpec `json:"spec,omitempty"`
	// cluster payload (Type == "cluster").
	Cluster *ClusterRecord `json:"cluster,omitempty"`
	// finish and reject fields: terminal state, rendered output (done
	// only), error.
	State  string `json:"state,omitempty"`
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	// checkpoint fields: the simulation cache key and the first
	// unsimulated bus cycle of the stored blob.
	Key string `json:"key,omitempty"`
	Bus int64  `json:"bus,omitempty"`
	At  string `json:"at,omitempty"`
	CRC string `json:"crc"`
}

// seal computes the record's CRC over its encoding with CRC empty.
func (r walRecord) seal() ([]byte, error) {
	r.CRC = ""
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	r.CRC = fmt.Sprintf("%08x", crc32.ChecksumIEEE(body))
	return json.Marshal(r)
}

// verify recomputes the CRC and compares.
func (r walRecord) verify() bool {
	want := r.CRC
	r.CRC = ""
	body, err := json.Marshal(r)
	if err != nil {
		return false
	}
	return want == fmt.Sprintf("%08x", crc32.ChecksumIEEE(body))
}

// wal is the open journal. Appends are serialized, CRC-sealed, and
// synced to disk before they return, so an acknowledged submission is
// on stable storage by the time the client sees 202.
type wal struct {
	mu   sync.Mutex
	fs   errfs.FS
	f    errfs.File
	lsn  int64
	path string
}

// openWAL opens (creating if needed) the journal at path, replays every
// valid record, truncates any torn tail, and returns the journal
// positioned for appending plus the replayed records in order.
func openWAL(fsys errfs.FS, path string) (*wal, []walRecord, error) {
	if fsys == nil {
		fsys = errfs.OS
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var (
		recs []walRecord
		good int64 // byte offset after the last valid record
		lsn  int64
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	off := int64(0)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // + newline
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn or corrupt tail
		}
		if !rec.verify() || rec.LSN != lsn+1 {
			break
		}
		lsn = rec.LSN
		recs = append(recs, rec)
		off += lineLen
		good = off
	}
	// Scanner errors (e.g. an over-long garbage line) are treated like a
	// torn tail: everything after the last good record is dropped.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("server: wal truncate: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{fs: fsys, f: f, lsn: lsn, path: path}, recs, nil
}

// append seals and writes one record, then syncs.
func (w *wal) append(rec walRecord) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lsn++
	rec.LSN = w.lsn
	rec.At = time.Now().UTC().Format(time.RFC3339Nano)
	line, err := rec.seal()
	if err != nil {
		w.lsn--
		return err
	}
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *wal) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// recoveredJob is the replayed final knowledge about one journaled job.
type recoveredJob struct {
	id     string
	spec   JobSpec
	idem   string
	state  State // "" while the job never reached a terminal record
	output string
	errMsg string
}

// replay folds the journal records into per-job outcomes, in submission
// order, plus the idempotency-key index. Records that reference unknown
// jobs (possible when the tail was torn between related appends) are
// skipped rather than fatal — the journal is advisory history, and
// recovery must always succeed.
func replay(recs []walRecord) (jobs []*recoveredJob, byID map[string]*recoveredJob) {
	byID = make(map[string]*recoveredJob)
	for _, rec := range recs {
		switch rec.Type {
		case "submit":
			if rec.Spec == nil || rec.Job == "" || byID[rec.Job] != nil {
				continue
			}
			rj := &recoveredJob{id: rec.Job, spec: *rec.Spec, idem: rec.Idem}
			byID[rec.Job] = rj
			jobs = append(jobs, rj)
		case "finish", "reject":
			if rj := byID[rec.Job]; rj != nil {
				rj.state = State(rec.State)
				rj.output = rec.Output
				rj.errMsg = rec.Error
				if rec.Type == "reject" {
					// Refused at admission: the key was given back.
					rj.idem = ""
				}
			}
		case "start", "checkpoint", "interrupted":
			// Progress markers: useful for audit, not needed to decide
			// recovery (a non-terminal job re-runs either way, resuming
			// from the blob store when a checkpoint is available).
		case "cluster":
			// Cluster-state records replay through Server.ClusterReplay,
			// not the job path.
		}
	}
	return jobs, byID
}

// blobMagic heads every checkpoint-blob file. The frame embeds the
// simulation key (file names are hashes, so without it a corrupt blob
// could not be re-fetched from a replica) and a sha256 of the payload,
// verified on every read — bit rot shows up as a checksum miss, never as
// a silently wrong resume.
const blobMagic = "ERUCABLOB1"

// frameBlob wraps a checkpoint payload for storage:
//
//	ERUCABLOB1\n<key>\n<hex sha256(payload)>\n<payload>
func frameBlob(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(len(blobMagic) + len(key) + 64 + 3 + len(payload))
	buf.WriteString(blobMagic)
	buf.WriteByte('\n')
	buf.WriteString(key)
	buf.WriteByte('\n')
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')
	buf.Write(payload)
	return buf.Bytes()
}

// errBlobCorrupt reports a blob that failed framing or checksum
// verification.
var errBlobCorrupt = fmt.Errorf("server: checkpoint blob corrupt")

// parseBlob splits a framed blob and verifies the payload checksum. The
// key is returned even when verification fails (the header survived) so
// the scrubber can re-fetch the blob from a replica by key.
func parseBlob(b []byte) (key string, payload []byte, err error) {
	rest, ok := bytes.CutPrefix(b, []byte(blobMagic+"\n"))
	if !ok {
		return "", nil, errBlobCorrupt
	}
	keyB, rest, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return "", nil, errBlobCorrupt
	}
	key = string(keyB)
	sumB, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok || len(sumB) != 64 {
		return key, nil, errBlobCorrupt
	}
	want := sha256.Sum256(payload)
	if string(sumB) != hex.EncodeToString(want[:]) {
		return key, nil, errBlobCorrupt
	}
	return key, payload, nil
}

// ckptStore holds the latest simulation checkpoint blob per simulation
// key, one file per key (atomic via fsync + rename + directory fsync).
// Every blob is framed with its key and a sha256 verified on read, so
// corruption is detected at the store boundary; onCorrupt fires once per
// detection for metrics/logging.
type ckptStore struct {
	dir       string
	fs        errfs.FS
	onCorrupt func(key string)
}

func newCkptStore(fsys errfs.FS, dir string) (*ckptStore, error) {
	if fsys == nil {
		fsys = errfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ckptStore{dir: dir, fs: fsys}, nil
}

// file maps a simulation key to its blob path.
func (c *ckptStore) file(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:12])+".ckpt")
}

// Save atomically replaces the blob for key: frame, write to a temp
// file, fsync the file, rename over the target, fsync the directory.
// Only after the directory fsync is the new blob guaranteed to survive a
// power cut.
func (c *ckptStore) Save(key string, blob []byte) error {
	path := c.file(key)
	tmp := path + ".tmp"
	f, err := c.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frameBlob(key, blob)); err != nil {
		f.Close()
		c.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		c.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		c.fs.Remove(tmp)
		return err
	}
	if err := c.fs.Rename(tmp, path); err != nil {
		c.fs.Remove(tmp)
		return err
	}
	return c.fs.SyncDir(c.dir)
}

// Load returns the verified payload for key, or nil when there is none
// (resume is an optimization, never a requirement). A blob that fails
// verification is reported through onCorrupt and deleted, so the
// caller's fetch-from-replica fallthrough (checkpointPolicy) becomes a
// read-through repair.
func (c *ckptStore) Load(key string) []byte {
	b, err := c.fs.ReadFile(c.file(key))
	if err != nil {
		return nil
	}
	_, payload, err := parseBlob(b)
	if err != nil {
		if c.onCorrupt != nil {
			c.onCorrupt(key)
		}
		c.fs.Remove(c.file(key))
		return nil
	}
	return payload
}

// Len reports how many blobs the store holds (for logs and tests).
func (c *ckptStore) Len() int {
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".ckpt" {
			n++
		}
	}
	return n
}

// Scrub walks every blob, verifies its checksum, and repairs corrupt
// blobs through the repair callback (fetch-by-key from the replica tier;
// nil or a nil return means no replica). Blobs whose key survived the
// corruption are re-fetched and rewritten; unrecoverable blobs are
// deleted so a later Load does not trip on them again.
func (c *ckptStore) Scrub(repair func(key string) []byte) (scanned, corrupt, repaired int) {
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return 0, 0, 0
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		path := filepath.Join(c.dir, e.Name())
		b, err := c.fs.ReadFile(path)
		if err != nil {
			continue
		}
		scanned++
		key, _, perr := parseBlob(b)
		if perr == nil {
			continue
		}
		corrupt++
		if c.onCorrupt != nil {
			c.onCorrupt(key)
		}
		if repair != nil && key != "" {
			if blob := repair(key); blob != nil {
				if err := c.Save(key, blob); err == nil {
					repaired++
					continue
				}
			}
		}
		c.fs.Remove(path)
	}
	return scanned, corrupt, repaired
}

// compact rewrites the journal down to the records that still matter:
// one submit (+ finish, when terminal) per job, in the original
// submission order, then the current cluster-state snapshot, with fresh
// consecutive LSNs. Called on graceful drain so the journal does not
// grow without bound across restarts. The tmp file is fsynced before the
// rename and the directory after it; on any failure the original journal
// is left untouched — a half-written compaction must never replace a
// good journal.
func compactWAL(fsys errfs.FS, path string, jobs []*Job, clusterRecs []ClusterRecord) error {
	if fsys == nil {
		fsys = errfs.OS
	}
	tmp := path + ".tmp"
	var buf bytes.Buffer
	lsn := int64(0)
	write := func(rec walRecord) error {
		lsn++
		rec.LSN = lsn
		line, err := rec.seal()
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		return nil
	}
	sorted := append([]*Job(nil), jobs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, j := range sorted {
		spec := j.Spec
		if err := write(walRecord{Type: "submit", Job: j.ID, Idem: j.idemKey, Spec: &spec}); err != nil {
			return err
		}
		// An interrupted job keeps only its submit record — withholding
		// the terminal record is what makes the next boot re-run it.
		if rec, ok := j.terminalRecord(); ok {
			if err := write(rec); err != nil {
				return err
			}
		}
	}
	for i := range clusterRecs {
		if err := write(walRecord{Type: "cluster", Cluster: &clusterRecs[i]}); err != nil {
			return err
		}
	}
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
