// Package hdfs is a from-scratch implementation of the Hadoop
// Distributed File System's architecture as the paper uses it
// (§III-A): a master NameNode owning the namespace and block map, and
// DataNodes storing fixed-size blocks, with configurable replication
// and locality-aware block placement.
//
// Block payloads live in a pluggable BlockStore: the default keeps
// everything in memory (live execution, examples, tests), while the
// spill-backed store keeps payloads under a memory watermark and
// spills the rest to disk — the bounded-memory path for datasets far
// larger than RAM. Replicas share one immutable payload per block;
// replication is placement metadata, not extra copies. Files can also
// be synthetic — metadata and sizes only — so the simulated
// experiments can describe the paper's 120 GB working sets without
// allocating them.
package hdfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"hetmr/internal/topo"
)

// Errors returned by the file system.
var (
	ErrNotFound      = errors.New("hdfs: file not found")
	ErrExists        = errors.New("hdfs: file already exists")
	ErrNoDataNodes   = errors.New("hdfs: no live datanodes")
	ErrSynthetic     = errors.New("hdfs: synthetic file has no readable data")
	ErrBlockLost     = errors.New("hdfs: block has no live replica")
	ErrUnknownNode   = errors.New("hdfs: unknown datanode")
	ErrNodeDead      = errors.New("hdfs: datanode is dead")
	ErrBadReplFactor = errors.New("hdfs: replication factor must be >= 1")
)

// BlockID identifies one block cluster-wide.
type BlockID int64

// DataNode stores block replicas for one cluster node. A replica is
// metadata — block ID and size — referencing the payload the NameNode's
// BlockStore holds once.
type DataNode struct {
	Name   string
	Rack   string            // topology assignment (topo.DefaultRack when flat)
	blocks map[BlockID]int64 // replica sizes
	used   int64
	alive  bool
}

// UsedBytes returns the bytes stored on this datanode.
func (d *DataNode) UsedBytes() int64 { return d.used }

// BlockCount returns the number of replicas stored here.
func (d *DataNode) BlockCount() int { return len(d.blocks) }

// Alive reports whether the node is serving.
func (d *DataNode) Alive() bool { return d.alive }

type fileMeta struct {
	name      string
	blocks    []BlockID
	size      int64
	synthetic bool
}

// BlockLocation describes one block of a file: its byte range within
// the file and the datanodes holding replicas.
type BlockLocation struct {
	Block  BlockID
	Offset int64 // offset of the block within the file
	Size   int64
	Hosts  []string // datanode names, primary first
}

// NameNode is the metadata master. All mutating operations go through
// it, as in HDFS ("the master process manages the global name space
// and controls the operations on files").
type NameNode struct {
	mu          sync.Mutex
	blockSize   int64
	replication int
	store       BlockStore
	files       map[string]*fileMeta
	nodes       map[string]*DataNode
	nodeOrder   []string // registration order, for deterministic placement
	locations   map[BlockID][]string
	blockSizes  map[BlockID]int64
	hasData     map[BlockID]bool // false: synthetic (metadata-only) block
	nextBlock   BlockID
}

// Option customizes NewNameNode.
type Option func(*NameNode)

// WithBlockStore selects the block payload store (default: all in
// memory). The NameNode owns the store after construction; Close
// releases it.
func WithBlockStore(bs BlockStore) Option {
	return func(nn *NameNode) { nn.store = bs }
}

// NewNameNode creates a NameNode with the given block size and
// replication factor (the paper: 64 MB blocks, replication 1).
func NewNameNode(blockSize int64, replication int, opts ...Option) (*NameNode, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("hdfs: block size %d must be positive", blockSize)
	}
	if replication < 1 {
		return nil, ErrBadReplFactor
	}
	nn := &NameNode{
		blockSize:   blockSize,
		replication: replication,
		files:       make(map[string]*fileMeta),
		nodes:       make(map[string]*DataNode),
		locations:   make(map[BlockID][]string),
		blockSizes:  make(map[BlockID]int64),
		hasData:     make(map[BlockID]bool),
	}
	for _, o := range opts {
		o(nn)
	}
	if nn.store == nil {
		nn.store = NewMemBlockStore()
	}
	return nn, nil
}

// Close releases the block store (spill files, when the store is
// disk-backed). The file system is unusable afterwards.
func (nn *NameNode) Close() error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.store.Close()
}

// BlockSize returns the configured block size.
func (nn *NameNode) BlockSize() int64 { return nn.blockSize }

// Replication returns the configured replication factor.
func (nn *NameNode) Replication() int { return nn.replication }

// RegisterDataNode adds a datanode to the cluster on the flat default
// rack.
func (nn *NameNode) RegisterDataNode(name string) (*DataNode, error) {
	return nn.RegisterDataNodeAt(name, topo.DefaultRack)
}

// RegisterDataNodeAt adds a datanode on the named rack ("" reads as
// topo.DefaultRack). Placement and repair spread replicas across
// racks, so losing one rack cannot take every copy of a block.
func (nn *NameNode) RegisterDataNodeAt(name, rack string) (*DataNode, error) {
	if rack == "" {
		rack = topo.DefaultRack
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.nodes[name]; ok {
		return nil, fmt.Errorf("hdfs: datanode %q already registered", name)
	}
	d := &DataNode{Name: name, Rack: rack, blocks: make(map[BlockID]int64), alive: true}
	nn.nodes[name] = d
	nn.nodeOrder = append(nn.nodeOrder, name)
	return d, nil
}

// DataNodes returns the names of live datanodes in registration order.
func (nn *NameNode) DataNodes() []string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []string
	for _, n := range nn.nodeOrder {
		if nn.nodes[n].alive {
			out = append(out, n)
		}
	}
	return out
}

// candidates lists the live datanodes in registration order, loaded
// by their stored bytes — topo.Spread's input. Callers hold nn.mu.
func (nn *NameNode) candidates() []topo.Candidate {
	var out []topo.Candidate
	for _, n := range nn.nodeOrder {
		if d := nn.nodes[n]; d.alive {
			out = append(out, topo.Candidate{Name: d.Name, Rack: d.Rack, Load: d.used})
		}
	}
	return out
}

// liveHosts filters hosts down to the live datanodes. Callers hold
// nn.mu.
func (nn *NameNode) liveHosts(hosts []string) []string {
	var out []string
	for _, h := range hosts {
		if nn.nodes[h].alive {
			out = append(out, h)
		}
	}
	return out
}

// place chooses replica hosts for a new block: the preferred node
// first (HDFS writes the first replica on the writer's node), then
// topo.Spread over the rest — least-loaded on an uncovered rack, then
// least-loaded anywhere. On a flat topology this degenerates to the
// historical least-loaded order. Callers hold nn.mu.
func (nn *NameNode) place(preferred string) ([]*DataNode, error) {
	cands := nn.candidates()
	if len(cands) == 0 {
		return nil, ErrNoDataNodes
	}
	var hosts []*DataNode
	if d, ok := nn.nodes[preferred]; ok && d.alive {
		hosts = append(hosts, d)
	}
	for _, c := range topo.Spread(cands, []string{preferred}, nn.replication) {
		hosts = append(hosts, nn.nodes[c.Name])
	}
	return hosts, nil
}

// addSyntheticBlock registers a metadata-only block (no payload, no
// store traffic). Callers hold nn.mu.
func (nn *NameNode) addSyntheticBlock(f *fileMeta, size int64, preferred string) error {
	id := nn.nextBlock
	nn.nextBlock++
	return nn.commitBlock(f, id, size, false, preferred)
}

// commitBlock registers a block's replicas on the chosen nodes and
// appends it to the file. For data blocks the payload is already in
// the block store under id, so a reader can never observe registered
// metadata without its bytes. Callers hold nn.mu.
func (nn *NameNode) commitBlock(f *fileMeta, id BlockID, size int64, hasData bool, preferred string) error {
	hosts, err := nn.place(preferred)
	if err != nil {
		return err
	}
	if hasData {
		nn.hasData[id] = true
	}
	var names []string
	for _, d := range hosts {
		d.blocks[id] = size
		d.used += size
		names = append(names, d.Name)
	}
	nn.locations[id] = names
	nn.blockSizes[id] = size
	f.blocks = append(f.blocks, id)
	f.size += size
	return nil
}

// storeBlock is the data-block write path: mint an ID, store the
// payload OUTSIDE nn.mu — a spill-backed store may compress and hit
// the disk, and that work must not stall every concurrent metadata
// operation — then commit the metadata under the lock.
func (nn *NameNode) storeBlock(f *fileMeta, data []byte, preferred string) error {
	nn.mu.Lock()
	id := nn.nextBlock
	nn.nextBlock++
	nn.mu.Unlock()
	if err := nn.store.Put(id, data); err != nil {
		return err
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if err := nn.commitBlock(f, id, int64(len(data)), true, preferred); err != nil {
		nn.store.Delete(id)
		return err
	}
	return nil
}

// CreateSynthetic creates a file of the given size whose blocks carry
// no data. Blocks are spread across datanodes by the placement policy.
func (nn *NameNode) CreateSynthetic(name string, size int64) error {
	return nn.CreateSyntheticAt(name, size, "")
}

// CreateSyntheticAt is CreateSynthetic with a preferred primary
// replica host — the HDFS writer-locality rule for data ingested on a
// specific node ("HDFS can decide to change the blocks location in
// order to favour local accesses").
func (nn *NameNode) CreateSyntheticAt(name string, size int64, preferredNode string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	if size < 0 {
		return fmt.Errorf("hdfs: negative file size %d", size)
	}
	f := &fileMeta{name: name, synthetic: true}
	remaining := size
	for remaining > 0 {
		n := nn.blockSize
		if remaining < n {
			n = remaining
		}
		if err := nn.addSyntheticBlock(f, n, preferredNode); err != nil {
			return err
		}
		remaining -= n
	}
	nn.files[name] = f
	return nil
}

// Writer streams data into a new file, cutting blocks at the block
// size. Close finalizes the file. The internal buffer never holds more
// than one block plus the largest single Write: emitted blocks advance
// an offset cursor and the consumed prefix is dropped with one copy
// per call, so writing an n-byte file costs O(n), not O(n²).
type Writer struct {
	nn        *NameNode
	f         *fileMeta
	buf       []byte
	preferred string
	closed    bool
}

// Create opens a writer for a new file. preferredNode, when not empty,
// receives the first replica of every block (writer locality).
func (nn *NameNode) Create(name, preferredNode string) (*Writer, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if _, ok := nn.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := &fileMeta{name: name}
	nn.files[name] = f
	return &Writer{nn: nn, f: f, preferred: preferredNode}, nil
}

// Write implements io.Writer. A Writer is not goroutine-safe
// (standard io.Writer contract); blockSize is immutable, and each
// emitted block takes the NameNode lock only for its metadata commit.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("hdfs: write on closed writer")
	}
	written := len(p)
	bs := int(w.nn.blockSize)
	// Full blocks available directly from p skip the buffer entirely
	// (the block store copies what it keeps).
	if len(w.buf) == 0 {
		for len(p) >= bs {
			if err := w.nn.storeBlock(w.f, p[:bs], w.preferred); err != nil {
				return 0, err
			}
			p = p[bs:]
		}
	}
	w.buf = append(w.buf, p...)
	start := 0
	for len(w.buf)-start >= bs {
		if err := w.nn.storeBlock(w.f, w.buf[start:start+bs], w.preferred); err != nil {
			return 0, err
		}
		start += bs
	}
	if start > 0 {
		n := copy(w.buf, w.buf[start:])
		w.buf = w.buf[:n]
	}
	return written, nil
}

// Close flushes the final partial block.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.nn.storeBlock(w.f, w.buf, w.preferred); err != nil {
			return err
		}
		w.buf = nil
	}
	return nil
}

// WriteFile creates name with the given contents in one call.
func (nn *NameNode) WriteFile(name string, data []byte, preferredNode string) error {
	w, err := nn.Create(name, preferredNode)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// copyBufBytes caps CreateFrom's transfer buffer: large enough to
// amortize call overhead, far below a 64 MB block.
const copyBufBytes = 256 * 1024

// CreateFrom streams r into a new file, returning the bytes written.
// Memory use is bounded by the transfer buffer plus the writer's
// block buffer regardless of the stream's length — the ingest path
// for datasets larger than RAM.
func (nn *NameNode) CreateFrom(name, preferredNode string, r io.Reader) (int64, error) {
	w, err := nn.Create(name, preferredNode)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, copyBufBytes)
	n, err := io.CopyBuffer(w, r, buf)
	if err != nil {
		return n, err
	}
	return n, w.Close()
}

// Exists reports whether the file exists.
func (nn *NameNode) Exists(name string) bool {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	_, ok := nn.files[name]
	return ok
}

// FileSize returns the file's length in bytes.
func (nn *NameNode) FileSize(name string) (int64, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.size, nil
}

// Delete removes a file, frees its replicas and drops its payloads
// from the block store.
func (nn *NameNode) Delete(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, id := range f.blocks {
		for _, host := range nn.locations[id] {
			if d, ok := nn.nodes[host]; ok {
				if size, ok := d.blocks[id]; ok {
					d.used -= size
					delete(d.blocks, id)
				}
			}
		}
		nn.store.Delete(id)
		delete(nn.locations, id)
		delete(nn.blockSizes, id)
		delete(nn.hasData, id)
	}
	delete(nn.files, name)
	return nil
}

// List returns all file names, sorted.
func (nn *NameNode) List() []string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []string
	for name := range nn.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Locations returns the file's block layout with live replica hosts.
func (nn *NameNode) Locations(name string) ([]BlockLocation, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	f, ok := nn.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	var out []BlockLocation
	var off int64
	for _, id := range f.blocks {
		var hosts []string
		for _, h := range nn.locations[id] {
			if d, ok := nn.nodes[h]; ok && d.alive {
				hosts = append(hosts, h)
			}
		}
		out = append(out, BlockLocation{Block: id, Offset: off, Size: nn.blockSizes[id], Hosts: hosts})
		off += nn.blockSizes[id]
	}
	return out, nil
}

// ReadBlock fetches a block's data from a specific datanode. The
// returned slice may alias the store's copy and must be treated as
// immutable.
func (nn *NameNode) ReadBlock(id BlockID, host string) ([]byte, error) {
	nn.mu.Lock()
	d, ok := nn.nodes[host]
	if !ok {
		nn.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, host)
	}
	if !d.alive {
		nn.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNodeDead, host)
	}
	if _, ok := d.blocks[id]; !ok {
		nn.mu.Unlock()
		return nil, fmt.Errorf("hdfs: block %d not on %s", id, host)
	}
	if !nn.hasData[id] {
		nn.mu.Unlock()
		return nil, ErrSynthetic
	}
	store := nn.store
	nn.mu.Unlock()
	return store.Get(id)
}

// Reader reads a file's real data sequentially, preferring replicas on
// preferredNode (locality) when available. A replica that dies
// mid-read fails over to the remaining replicas, refreshing the block
// layout once (re-replication after a node death can mint new hosts)
// before giving up.
type Reader struct {
	nn        *NameNode
	name      string
	locs      []BlockLocation
	preferred string
	blockIdx  int
	blockOff  int
	current   []byte
}

// Open returns a sequential reader over name's data.
func (nn *NameNode) Open(name, preferredNode string) (*Reader, error) {
	nn.mu.Lock()
	f, ok := nn.files[name]
	synthetic := ok && f.synthetic
	nn.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if synthetic {
		return nil, ErrSynthetic
	}
	locs, err := nn.Locations(name)
	if err != nil {
		return nil, err
	}
	return &Reader{nn: nn, name: name, locs: locs, preferred: preferredNode}, nil
}

// hostAt is topo.ReadOrder's accessor for a bare host name: the
// Reader orders replicas without racks, preferred node first.
func hostAt(h string) (string, string) { return h, "" }

// fetchCurrent loads the reader's current block, failing over along
// the replica list and refreshing stale locations once.
func (r *Reader) fetchCurrent() ([]byte, error) {
	try := func(loc BlockLocation) ([]byte, error) {
		hosts := loc.Hosts
		if len(hosts) == 0 {
			return nil, fmt.Errorf("%w: block %d", ErrBlockLost, loc.Block)
		}
		var lastErr error
		for _, h := range topo.ReadOrder(hosts, hostAt, r.preferred, "") {
			data, err := r.nn.ReadBlock(loc.Block, h)
			if err == nil {
				return data, nil
			}
			lastErr = err
		}
		return nil, lastErr
	}
	data, err := try(r.locs[r.blockIdx])
	if err == nil {
		return data, nil
	}
	// The cached layout may predate a node death; re-replication can
	// have minted fresh replicas since.
	locs, lerr := r.nn.Locations(r.name)
	if lerr != nil || r.blockIdx >= len(locs) {
		return nil, err
	}
	r.locs = locs
	return try(locs[r.blockIdx])
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	for {
		if r.current == nil {
			if r.blockIdx >= len(r.locs) {
				return 0, io.EOF
			}
			data, err := r.fetchCurrent()
			if err != nil {
				return 0, err
			}
			r.current = data
			r.blockOff = 0
		}
		n := copy(p, r.current[r.blockOff:])
		r.blockOff += n
		if r.blockOff >= len(r.current) {
			r.current = nil
			r.blockIdx++
		}
		if n > 0 || len(p) == 0 {
			return n, nil
		}
	}
}

// ReadFile returns the whole file's contents.
func (nn *NameNode) ReadFile(name string) ([]byte, error) {
	r, err := nn.Open(name, "")
	if err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// KillDataNode marks a node dead. Its replicas become unavailable; the
// NameNode re-replicates blocks that still have a live copy elsewhere
// (with replication 1, as in the paper, a dead node means lost blocks,
// which Locations will report as host-less). Because replicas share
// one stored payload, re-replication is a metadata move — no payload
// copy.
func (nn *NameNode) KillDataNode(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	d, ok := nn.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !d.alive {
		return fmt.Errorf("%w: %s", ErrNodeDead, name)
	}
	d.alive = false
	// Re-replicate under-replicated blocks from surviving replicas,
	// spreading the repairs back across racks.
	for id, hosts := range nn.locations {
		live := nn.liveHosts(hosts)
		if len(live) == 0 || len(live) >= nn.replication {
			continue
		}
		nn.repairBlock(id, live)
	}
	return nil
}

// repairBlock tops a block's live replica set (hosts, possibly empty)
// back up to the replication target through topo.Spread and rewrites
// its location record. Replicas share one stored payload, so the
// repair is a metadata move. Callers hold nn.mu.
func (nn *NameNode) repairBlock(id BlockID, hosts []string) {
	size := nn.blockSizes[id]
	for _, c := range topo.Spread(nn.candidates(), hosts, nn.replication) {
		d := nn.nodes[c.Name]
		d.blocks[id] = size
		d.used += size
		hosts = append(hosts, c.Name)
	}
	nn.locations[id] = hosts
}

// DecommissionDataNode retires a node gracefully: every replica it
// holds is first re-homed onto the remaining live nodes (rack-spread;
// a metadata move, since replicas share one stored payload), then the
// node leaves the cluster entirely. Unlike KillDataNode, no block
// loses availability — with no other node to hold a copy the
// decommission is refused.
func (nn *NameNode) DecommissionDataNode(name string) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	d, ok := nn.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !d.alive {
		return fmt.Errorf("%w: %s", ErrNodeDead, name)
	}
	// Out of placement while the drain runs.
	d.alive = false
	if len(d.blocks) > 0 && len(nn.candidates()) == 0 {
		d.alive = true
		return fmt.Errorf("%w: decommission %s would lose its %d blocks", ErrNoDataNodes, name, len(d.blocks))
	}
	// A block this node holds the only copy of lands on the
	// least-loaded live node first, then spreads like any repair.
	for id, size := range d.blocks {
		nn.repairBlock(id, nn.liveHosts(nn.locations[id]))
		d.used -= size
	}
	delete(nn.nodes, name)
	for i, n := range nn.nodeOrder {
		if n == name {
			nn.nodeOrder = append(nn.nodeOrder[:i], nn.nodeOrder[i+1:]...)
			break
		}
	}
	return nil
}

// TotalBytes returns the bytes stored across live datanodes (replicas
// counted separately).
func (nn *NameNode) TotalBytes() int64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var total int64
	for _, d := range nn.nodes {
		if d.alive {
			total += d.used
		}
	}
	return total
}
