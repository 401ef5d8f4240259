// Package storage is the I/O model under the terrain structures. The paper
// stores DMTM and MSDN in Oracle and reports "number of disk pages
// accessed"; reproducing that number needs only which page IDs a read
// touches and the LRU hit/miss sequence over them. So pages here are
// accounting, not bytes: a clustered store packs records into numbered
// pages and keeps a directory of them, and the buffer pool is an LRU of page
// IDs that counts accesses, misses and evictions. No page payload exists.
package storage

import "errors"

// PageSize is the page size in bytes (a common DBMS default). Only the
// number of records a page holds derives from it.
const PageSize = 4096

// PageID identifies a page; IDs are dense, allocated from 0.
type PageID uint32

// ErrPageOutOfRange is returned by Get for a page that was never allocated.
var ErrPageOutOfRange = errors.New("storage: page out of range")

// MemFile is the "disk" the pool accounts against. It holds no bytes, only
// the number of pages allocated so far.
type MemFile struct{ n int }

// NewMemFile returns an empty page file.
func NewMemFile() *MemFile { return &MemFile{} }

// Alloc appends a page and returns its ID. It cannot fail; the error result
// keeps the signature of a file that could.
func (f *MemFile) Alloc() (PageID, error) {
	f.n++
	return PageID(f.n - 1), nil
}

// NumPages returns the number of allocated pages.
func (f *MemFile) NumPages() int { return f.n }
