package fsapi

// NodeID identifies an inode within a single file system instance
// (the analogue of an inode number). IDs are never reused within a run.
type NodeID uint64

// InvalidNode is never a valid NodeID.
const InvalidNode NodeID = 0

// FileType is the type portion of a file mode.
type FileType uint8

const (
	TypeRegular FileType = iota
	TypeDirectory
	TypeSymlink
	TypeCharDev
	TypeBlockDev
	TypeFIFO
	TypeSocket
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDirectory:
		return "dir"
	case TypeSymlink:
		return "symlink"
	case TypeCharDev:
		return "chardev"
	case TypeBlockDev:
		return "blockdev"
	case TypeFIFO:
		return "fifo"
	case TypeSocket:
		return "socket"
	}
	return "unknown"
}

// Mode is a Unix permission/mode word: type plus rwx bits plus setuid etc.
type Mode uint32

const (
	// Permission bits (lower 12 bits, as in POSIX).
	ModeSetUID Mode = 0o4000
	ModeSetGID Mode = 0o2000
	ModeSticky Mode = 0o1000
	ModePerm   Mode = 0o777

	// Type bits (stored in the high bits, derived from FileType).
	modeTypeShift      = 16
	ModeTypeMask  Mode = 0xff << modeTypeShift
)

// MkMode assembles a Mode from a FileType and permission bits.
func MkMode(t FileType, perm Mode) Mode {
	return Mode(t)<<modeTypeShift | (perm & (ModePerm | ModeSetUID | ModeSetGID | ModeSticky))
}

// Type extracts the FileType.
func (m Mode) Type() FileType { return FileType(m >> modeTypeShift) }

// Perm extracts the permission bits (including setuid/setgid/sticky).
func (m Mode) Perm() Mode { return m &^ ModeTypeMask }

// IsDir reports whether the mode describes a directory.
func (m Mode) IsDir() bool { return m.Type() == TypeDirectory }

// IsRegular reports whether the mode describes a regular file.
func (m Mode) IsRegular() bool { return m.Type() == TypeRegular }

// IsSymlink reports whether the mode describes a symbolic link.
func (m Mode) IsSymlink() bool { return m.Type() == TypeSymlink }

// NodeInfo is the metadata a low-level file system reports for one inode.
type NodeInfo struct {
	ID    NodeID
	Mode  Mode
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  int64
	// Mtime counts file system operations, not wall time: a logical
	// modification stamp good enough for make-style freshness checks.
	Mtime uint64
}

// DirEntry is one entry returned by ReadDir. It intentionally carries only
// what an on-disk dirent carries (name, inode number, type) — not full
// NodeInfo — so the VFS's "dentries without an inode" path (paper §5.1) is
// exercised honestly.
type DirEntry struct {
	Name string
	ID   NodeID
	Type FileType
}

// SetAttr describes a metadata update. Nil fields are left unchanged.
type SetAttr struct {
	Mode *Mode   // chmod (permission bits only; type is immutable)
	UID  *uint32 // chown
	GID  *uint32 // chown
	Size *int64  // truncate
}

// Capabilities describes optional file system behaviours the VFS must
// respect.
type Capabilities struct {
	// NoNegatives: the FS is fully synthesized in memory (proc/sys style)
	// and the stock kernel would not create negative dentries for it
	// (paper §5.2). The optimized cache overrides this.
	NoNegatives bool
	// ReadOnly: the FS rejects all mutation.
	ReadOnly bool
	// Revalidate: cached entries must be re-verified with the FS on
	// every use (a stateless network protocol's close-to-open
	// consistency). Whole-path direct lookup is disabled for such file
	// systems (§4.3 of the paper).
	Revalidate bool
	// Name is a short identifier ("diskfs", "memfs", "proc").
	Name string
}

// StatFS summarizes file system usage.
type StatFS struct {
	Blocks     uint64
	FreeBlocks uint64
	Inodes     uint64
	FreeInodes uint64
	BlockSize  int
	MaxNameLen int
	Caps       Capabilities
}

// FileSystem is the contract a low-level file system implements; it is the
// analogue of Linux's inode_operations + file_operations as seen from the
// VFS. Implementations must be safe for concurrent use.
//
// All name arguments are single path components (no '/'); the VFS performs
// all path walking, permission checking, and caching above this interface —
// the property the paper relies on ("these changes are encapsulated in the
// VFS — individual file systems do not have to change their code").
type FileSystem interface {
	// Root returns the root directory's node.
	Root() NodeInfo

	// GetNode returns metadata for a node by ID (used to hydrate dentries
	// created from ReadDir results). ESTALE if the node no longer exists.
	GetNode(id NodeID) (NodeInfo, error)

	// Lookup finds name within directory dir. ENOENT if absent, ENOTDIR if
	// dir is not a directory.
	Lookup(dir NodeID, name string) (NodeInfo, error)

	// Create makes a regular file. EEXIST if name exists.
	Create(dir NodeID, name string, mode Mode, uid, gid uint32) (NodeInfo, error)

	// Mkdir makes a directory. EEXIST if name exists.
	Mkdir(dir NodeID, name string, mode Mode, uid, gid uint32) (NodeInfo, error)

	// Symlink makes a symbolic link containing target.
	Symlink(dir NodeID, name, target string, uid, gid uint32) (NodeInfo, error)

	// Link makes a hard link to node under dir/name. EPERM if node is a
	// directory.
	Link(dir NodeID, name string, node NodeID) (NodeInfo, error)

	// Unlink removes a non-directory entry. EISDIR if it is a directory.
	Unlink(dir NodeID, name string) error

	// Rmdir removes an empty directory. ENOTEMPTY if non-empty.
	Rmdir(dir NodeID, name string) error

	// Rename moves odir/oname to ndir/nname, replacing any compatible
	// existing target (POSIX rename semantics).
	Rename(odir NodeID, oname string, ndir NodeID, nname string) error

	// ReadDir returns up to count entries of dir starting at cookie 0 for
	// the beginning; it returns the entries, the next cookie, and whether
	// the end of the directory was reached. count <= 0 means "all".
	ReadDir(dir NodeID, cookie uint64, count int) ([]DirEntry, uint64, bool, error)

	// ReadLink returns the target of a symlink.
	ReadLink(id NodeID) (string, error)

	// SetAttr applies a metadata change.
	SetAttr(id NodeID, attr SetAttr) (NodeInfo, error)

	// ReadAt reads file data.
	ReadAt(id NodeID, p []byte, off int64) (int, error)

	// WriteAt writes file data, extending the file as needed.
	WriteAt(id NodeID, p []byte, off int64) (int, error)

	// Sync flushes any buffered state to backing storage.
	Sync() error

	// StatFS reports usage and capabilities.
	StatFS() StatFS
}

// NodeRetainer is an optional interface a FileSystem may implement to
// support Unix open-unlinked-file semantics: a retained node survives the
// removal of its last name (data remains readable/writable) until the
// last release — the analogue of the kernel's inode reference count.
type NodeRetainer interface {
	// RetainNode pins the node against storage reclamation.
	RetainNode(id NodeID)
	// ReleaseNode drops a pin; at zero pins an orphaned (nlink 0) node's
	// storage is reclaimed.
	ReleaseNode(id NodeID)
}
