package ipfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"twine/internal/hostfs"
)

// recFS is a host that records which physical node every read fetched.
type recFS struct {
	hostfs.FS
	reads []int64
}

func (r *recFS) OpenFile(name string, flag int) (hostfs.File, error) {
	f, err := r.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, fs: r}, nil
}

type recFile struct {
	hostfs.File
	fs *recFS
}

func (f *recFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads = append(f.fs.reads, off/NodeSize)
	return f.File.ReadAt(p, off)
}

// pageOf is the content of data node d at the given version.
func pageOf(d int64, version int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("<%06d.%03d>", d, version)), NodeSize/12+1)[:NodeSize]
}

func writePage(t *testing.T, f *File, d int64, version int) {
	t.Helper()
	if _, err := f.Seek(d*NodeSize, SeekStart); err != nil {
		t.Fatalf("Seek(page %d): %v", d, err)
	}
	if _, err := f.Write(pageOf(d, version)); err != nil {
		t.Fatalf("Write(page %d): %v", d, err)
	}
}

func readPage(f *File, d int64) ([]byte, error) {
	if _, err := f.Seek(d*NodeSize, SeekStart); err != nil {
		return nil, err
	}
	buf := make([]byte, NodeSize)
	n, err := f.Read(buf)
	return buf[:n], err
}

func mustReadPage(t *testing.T, f *File, d int64, version int) {
	t.Helper()
	got, err := readPage(f, d)
	if err != nil {
		t.Fatalf("read of page %d: %v", d, err)
	}
	if !bytes.Equal(got, pageOf(d, version)) {
		t.Fatalf("page %d reads %q..., want version %d", d, got[:12], version)
	}
}

// sealedFile creates "f" with the given number of version-0 pages and
// returns the writer's handle, still open.
func sealedFile(t *testing.T, fs *FS, pages int64) *File {
	t.Helper()
	w, err := fs.Open("f", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
	if err != nil {
		t.Fatalf("Open (writer): %v", err)
	}
	for d := int64(0); d < pages; d++ {
		writePage(t, w, d, 0)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return w
}

func openReader(t *testing.T, fs *FS) *File {
	t.Helper()
	r, err := fs.Open("f", hostfs.ORead)
	if err != nil {
		t.Fatalf("Open (reader): %v", err)
	}
	return r
}

// TestRefreshCostFollowsTheChange pins the rule in doc.go: a refresh with
// an unchanged root costs one metadata read; after a commit that changed
// one page it re-reads only the MHT nodes on that page's path and reports
// only that page, whatever the file's size and however full the cache;
// and every cached node the commit did not change is served afterwards
// without touching the host.
func TestRefreshCostFollowsTheChange(t *testing.T) {
	// Page 97 is the second page under MHT node 1, so its path is the
	// root MHT node (physical 1) and MHT node 1 (physical 98) in a file of
	// any size that has it.
	const target = 97
	for _, filled := range []bool{false, true} {
		var want []int64 // node reads of the refresh, equal across file sizes
		for _, pages := range []int64{100, 10000} {
			t.Run(fmt.Sprintf("pages=%d/cached=%v", pages, filled), func(t *testing.T) {
				host := &recFS{FS: hostfs.NewMemFS()}
				fs := New(nil, host, Options{Mode: ModeOptimized})
				w := sealedFile(t, fs, pages)
				defer w.Close()
				r := openReader(t, fs)
				defer r.Close()

				var cached []int64 // data nodes the reader holds, bar the target
				if filled {
					for d := int64(0); d < 70; d++ {
						mustReadPage(t, r, d*pages/70, 0)
					}
					mustReadPage(t, r, target, 0)
					if r.CachedNodes() != DefaultCacheNodes {
						t.Fatalf("reader caches %d nodes, want a full cache of %d", r.CachedNodes(), DefaultCacheNodes)
					}
					for _, n := range r.cache {
						if !n.isMHT && n.idx != target {
							cached = append(cached, n.idx)
						}
					}
				}

				// No commit: one metadata read, nothing reported.
				host.reads = nil
				spans, err := r.Refresh()
				if err != nil || spans != nil {
					t.Fatalf("Refresh with no commit = %v, %v; want no spans", spans, err)
				}
				if !reflect.DeepEqual(host.reads, []int64{0}) {
					t.Fatalf("Refresh with no commit read nodes %v, want only the metadata node", host.reads)
				}

				writePage(t, w, target, 1)
				if err := w.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				host.reads = nil
				spans, err = r.Refresh()
				if err != nil {
					t.Fatalf("Refresh: %v", err)
				}
				wantSpans := []Span{{0, pages * NodeSize}}
				wantReads := []int64{0}
				if filled {
					wantSpans = []Span{{target * NodeSize, NodeSize}}
					wantReads = []int64{0, mhtPhys(0), mhtPhys(1)}
				}
				if !reflect.DeepEqual(spans, wantSpans) {
					t.Errorf("Refresh reported %v, want %v", spans, wantSpans)
				}
				if !reflect.DeepEqual(host.reads, wantReads) {
					t.Errorf("Refresh read nodes %v, want %v", host.reads, wantReads)
				}
				if want == nil {
					want = host.reads
				} else if !reflect.DeepEqual(host.reads, want) {
					t.Errorf("Refresh read nodes %v in a %d-page file and %v in a 100-page one", host.reads, pages, want)
				}

				host.reads = nil
				for _, d := range cached {
					mustReadPage(t, r, d, 0)
				}
				if len(host.reads) != 0 {
					t.Errorf("unchanged cached nodes cost host reads of %v after the refresh", host.reads)
				}
				mustReadPage(t, r, target, 1)
				if filled && !reflect.DeepEqual(host.reads, []int64{dataPhys(target)}) {
					t.Errorf("the changed page cost host reads of %v, want only its own node", host.reads)
				}
			})
		}
	}
}

// TestRefreshUncachedParent: a cached data node can outlive its parent MHT
// node in the LRU. When that parent's entry moves there is no old
// plaintext to diff, so the whole subtree is dropped and reported, one
// span per level, clipped to the file.
func TestRefreshUncachedParent(t *testing.T) {
	host := &recFS{FS: hostfs.NewMemFS()}
	fs := New(nil, host, Options{Mode: ModeOptimized, CacheNodes: 8})
	const pages = 200
	w := sealedFile(t, fs, pages)
	defer w.Close()
	r := openReader(t, fs)
	defer r.Close()

	// Root, MHT 1 and page 97 come in first; six pages under the root then
	// fill the cache and push MHT 1 (least recently used) out.
	mustReadPage(t, r, 97, 0)
	for d := int64(0); d < 6; d++ {
		mustReadPage(t, r, d, 0)
	}
	if _, ok := r.cache[mhtPhys(1)]; ok {
		t.Fatal("MHT node 1 is still cached; the test no longer sets up its case")
	}
	if _, ok := r.cache[dataPhys(97)]; !ok {
		t.Fatal("page 97 is not cached; the test no longer sets up its case")
	}

	writePage(t, w, 97, 1)
	writePage(t, w, 3, 1)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	spans, err := r.Refresh()
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	want := []Span{{3 * NodeSize, NodeSize}, {96 * NodeSize, 96 * NodeSize}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("Refresh reported %v, want %v", spans, want)
	}
	host.reads = nil
	for _, d := range []int64{0, 1, 2, 4, 5} {
		mustReadPage(t, r, d, 0)
	}
	if len(host.reads) != 0 {
		t.Errorf("unchanged cached nodes cost host reads of %v", host.reads)
	}
	mustReadPage(t, r, 97, 1)
	mustReadPage(t, r, 3, 1)
}

// TestRefreshMatchesModel drives a writer and a long-lived refreshed
// reader with a seeded script (rewrites, growth across MHT levels, shrink,
// reads that churn the reader's cache) and after every commit checks the
// two promises of Refresh: the spans cover every byte that changed, and
// the reader then reads exactly what the writer holds.
func TestRefreshMatchesModel(t *testing.T) {
	for _, nodes := range []int{8, DefaultCacheNodes} {
		for _, mode := range []Mode{ModeStandard, ModeOptimized} {
			t.Run(fmt.Sprintf("cache=%d/%s", nodes, mode), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(nodes)))
				fs := New(nil, hostfs.NewMemFS(), Options{Mode: mode, CacheNodes: nodes})
				w := sealedFile(t, fs, 4)
				defer w.Close()
				r := openReader(t, fs)
				defer r.Close()

				version := map[int64]int{} // writer's content, by page
				pages := int64(4)
				old := map[int64]int{} // what the reader last revalidated
				oldPages := pages
				for round := 1; round <= 120; round++ {
					switch {
					case round == 40: // past 96 + 32*96 data nodes: a third MHT level
						for d := pages; d < 3300; d++ {
							writePage(t, w, d, round)
							version[d] = round
						}
						pages = 3300
					case round == 80:
						pages = 150
						if err := w.Truncate(pages * NodeSize); err != nil {
							t.Fatalf("Truncate: %v", err)
						}
						for d := range version {
							if d >= pages {
								delete(version, d)
							}
						}
					case round%7 == 0: // a commit that changes nothing
					default:
						for i := rng.Intn(4) + 1; i > 0; i-- {
							d := rng.Int63n(pages + 3) // sometimes appends
							if d > pages {
								d = pages
							}
							writePage(t, w, d, round)
							version[d] = round
							pages = max(pages, d+1)
						}
					}
					if err := w.Flush(); err != nil {
						t.Fatalf("round %d: Flush: %v", round, err)
					}

					spans, err := r.Refresh()
					if err != nil {
						t.Fatalf("round %d: Refresh: %v", round, err)
					}
					covered := func(d int64) bool {
						for _, s := range spans {
							if s.Off <= d*NodeSize && (d+1)*NodeSize <= s.Off+s.Len {
								return true
							}
						}
						return false
					}
					for d := int64(0); d < max(pages, oldPages); d++ {
						changed := d >= pages || d >= oldPages || version[d] != old[d]
						if changed && !covered(d) {
							t.Fatalf("round %d: page %d changed (version %d -> %d, %d -> %d pages) outside the reported spans %v",
								round, d, old[d], version[d], oldPages, pages, spans)
						}
					}
					if r.Size() != pages*NodeSize {
						t.Fatalf("round %d: reader sees %d bytes, writer holds %d", round, r.Size(), pages*NodeSize)
					}
					// Read back a sample biased to what just changed, plus
					// strays that churn the cache.
					for i := 0; i < 12; i++ {
						d := rng.Int63n(pages)
						mustReadPage(t, r, d, version[d])
					}
					for d, v := range version {
						if v == round {
							mustReadPage(t, r, d, v)
						}
					}
					old = make(map[int64]int, len(version))
					for d, v := range version {
						old[d] = v
					}
					oldPages = pages
				}
				for d := int64(0); d < pages; d++ {
					mustReadPage(t, r, d, version[d])
				}
			})
		}
	}
}

// hostBytes reads n bytes of the stored file at off, as the host sees it.
func hostBytes(t *testing.T, host hostfs.FS, off, n int64) []byte {
	t.Helper()
	f, err := host.OpenFile("f", hostfs.ORead)
	if err != nil {
		t.Fatalf("host open: %v", err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatalf("host read: %v", err)
	}
	return buf
}

func hostWrite(t *testing.T, host hostfs.FS, off int64, b []byte) {
	t.Helper()
	f, err := host.OpenFile("f", hostfs.OWrite)
	if err != nil {
		t.Fatalf("host open: %v", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatalf("host write: %v", err)
	}
}

// TestRefreshHostileHost: between a commit and the reader's refresh the
// host serves something other than what the writer stored. Every case
// must end in ErrIntegrity/ErrBadName, at the refresh or at the first read
// of the page the lie touches; never in new and old bytes mixed under one
// root, and never in "fresh empty file". A refresh that fails leaves the
// node cache empty and can be retried once the host behaves.
//
// The one lie a refresh cannot see is the old metadata node served over
// the new tree: that is the rollback doc.go says this design does not
// detect. The reader then keeps serving its own authenticated snapshot
// from cache and fails on the first node it has to fetch under a key the
// writer has since replaced.
func TestRefreshHostileHost(t *testing.T) {
	const pages = 200
	const hit = 97 // the page the commit rewrites; MHT 1 (physical 98) covers it
	nodeOff := func(phys int64) int64 { return phys * NodeSize }
	cases := []struct {
		name string
		// lie runs after the commit, with the bytes of the whole file as
		// they were before it.
		lie func(t *testing.T, host hostfs.FS, before []byte)
		// refreshErr: Refresh itself must fail.
		refreshErr bool
		// stalePages read as version 0 (the reader's old snapshot);
		// badPages fail with an integrity error.
		stalePages, badPages []int64
	}{
		{
			name: "truncated to zero",
			lie: func(t *testing.T, host hostfs.FS, _ []byte) {
				f, err := host.OpenFile("f", hostfs.OWrite)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if err := f.Truncate(0); err != nil {
					t.Fatal(err)
				}
			},
			refreshErr: true,
		},
		{
			name: "old metadata over new nodes",
			lie: func(t *testing.T, host hostfs.FS, before []byte) {
				hostWrite(t, host, 0, before[:NodeSize])
			},
			// Page 97 is cached; 96 and 150 are not, but the commit left
			// them alone, so the cached old MHT node 1 still names them.
			// Page 5 was rewritten and never cached.
			stalePages: []int64{hit, 96, 150},
			badPages:   []int64{5},
		},
		{
			name: "fresh metadata over a stale data node",
			lie: func(t *testing.T, host hostfs.FS, before []byte) {
				off := nodeOff(dataPhys(hit))
				hostWrite(t, host, off, before[off:off+NodeSize])
			},
			badPages: []int64{hit},
		},
		{
			name: "fresh metadata over a stale MHT node",
			lie: func(t *testing.T, host hostfs.FS, before []byte) {
				off := nodeOff(mhtPhys(1))
				hostWrite(t, host, off, before[off:off+NodeSize])
			},
			refreshErr: true,
		},
		{
			name: "torn metadata node",
			lie: func(t *testing.T, host hostfs.FS, before []byte) {
				hostWrite(t, host, 48, before[48:NodeSize]) // new nonce, old GCM tag
			},
			refreshErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			host := hostfs.NewMemFS()
			fs := New(nil, host, Options{Mode: ModeOptimized})
			w := sealedFile(t, fs, pages)
			defer w.Close()
			r := openReader(t, fs)
			defer r.Close()
			mustReadPage(t, r, hit, 0)
			mustReadPage(t, r, 0, 0)

			size := int64(dataPhys(pages-1)+1) * NodeSize
			before := hostBytes(t, host, 0, size)
			writePage(t, w, hit, 1)
			writePage(t, w, 5, 1)
			if err := w.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			after := hostBytes(t, host, 0, size)
			tc.lie(t, host, before)

			_, err := r.Refresh()
			if tc.refreshErr {
				if !errors.Is(err, ErrIntegrity) && !errors.Is(err, ErrBadName) {
					t.Fatalf("Refresh = %v, want ErrIntegrity or ErrBadName", err)
				}
				if r.CachedNodes() != 0 {
					t.Fatalf("a failed Refresh left %d nodes cached", r.CachedNodes())
				}
				// The host relents: the retry revalidates everything.
				hostWrite(t, host, 0, after)
				spans, err := r.Refresh()
				if err != nil || !reflect.DeepEqual(spans, []Span{{0, pages * NodeSize}}) {
					t.Fatalf("Refresh retry = %v, %v; want the whole file", spans, err)
				}
				mustReadPage(t, r, hit, 1)
				mustReadPage(t, r, 5, 1)
				mustReadPage(t, r, 0, 0)
				return
			}
			if err != nil {
				t.Fatalf("Refresh: %v", err)
			}
			for _, d := range tc.stalePages {
				mustReadPage(t, r, d, 0)
			}
			for _, d := range tc.badPages {
				for try := 0; try < 2; try++ { // a failed node must not be cached
					if got, err := readPage(r, d); !errors.Is(err, ErrIntegrity) {
						t.Errorf("page %d reads %q..., %v; want ErrIntegrity", d, got[:min(12, len(got))], err)
					}
				}
			}
			if len(tc.stalePages) == 0 {
				mustReadPage(t, r, 5, 1)
				mustReadPage(t, r, 0, 0)
			}
		})
	}
}

// TestRefreshRejectsUnflushedHandle: a handle with writes of its own has
// nothing to revalidate against, and is left as it was.
func TestRefreshRejectsUnflushedHandle(t *testing.T) {
	fs := New(nil, hostfs.NewMemFS(), Options{})
	w := sealedFile(t, fs, 4)
	defer w.Close()
	writePage(t, w, 2, 1)
	if _, err := w.Refresh(); !errors.Is(err, ErrUnflushed) {
		t.Fatalf("Refresh of a dirty handle = %v, want ErrUnflushed", err)
	}
	mustReadPage(t, w, 2, 1)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if spans, err := w.Refresh(); err != nil || spans != nil {
		t.Fatalf("Refresh of the only writer = %v, %v; want no change", spans, err)
	}
}
