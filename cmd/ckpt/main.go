// Command ckpt inspects a blockstore journal: what replay recovers, what
// the last checkpoint covers, and — with -verify — whether every block
// the checkpoint acknowledged is actually readable and the manifest's
// hierarchy snapshot hashes to its recorded digest.
//
// Usage:
//
//	ckpt -store /tmp/s.journal           # recovery + checkpoint summary
//	ckpt -store /tmp/s.journal -verify   # also byte-check the acked blocks
//	ckpt -store /tmp/s.journal -json     # machine-readable output
//
// The inspector is read-only: the journal bytes are loaded into an
// in-memory medium before replay, so inspecting a journal with a torn
// tail reports the tear without truncating the file — recovery is the
// kernel's decision to make at its next open, not the inspector's.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/blockstore"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/mem"
)

// verifyResult is the -verify outcome for the JSON output.
type verifyResult struct {
	BlocksChecked  int    `json:"blocks_checked"`
	BlocksReadable int    `json:"blocks_readable"`
	HierarchyOK    bool   `json:"hierarchy_digest_ok"`
	OK             bool   `json:"ok"`
	Detail         string `json:"detail,omitempty"`
}

// inspection is the full JSON document.
type inspection struct {
	Journal  string                     `json:"journal"`
	Bytes    int64                      `json:"bytes"`
	Recovery *blockstore.RecoveryReport `json:"recovery"`
	Stats    blockstore.Stats           `json:"stats"`
	Manifest *core.Manifest             `json:"manifest,omitempty"`
	Verify   *verifyResult              `json:"verify,omitempty"`
}

func main() {
	storePath := flag.String("store", "", "blockstore journal file to inspect (required)")
	verify := flag.Bool("verify", false, "byte-check every block the checkpoint covers")
	asJSON := flag.Bool("json", false, "emit one JSON object instead of text")
	flag.Parse()
	if *storePath == "" {
		cliutil.Exit2("ckpt", errors.New("-store is required"))
	}
	if err := run(os.Stdout, *storePath, *verify, *asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "ckpt: %v\n", err)
		os.Exit(1)
	}
}

// run inspects the journal at path and writes the report to w.
func run(w io.Writer, path string, verify, asJSON bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Replay against a copy: a torn tail is reported, never written back.
	media := blockstore.NewMemMedia()
	if err := media.Append(raw); err != nil {
		return err
	}
	bs, rec, err := blockstore.Open(blockstore.Config{Media: media})
	if err != nil {
		return fmt.Errorf("replaying %s: %w", path, err)
	}
	doc := inspection{Journal: path, Bytes: int64(len(raw)), Recovery: rec, Stats: bs.StoreStats()}

	if manBytes, err := bs.Manifest(); err == nil {
		man, err := core.DecodeManifest(manBytes)
		if err != nil {
			return err
		}
		doc.Manifest = man
		if verify {
			doc.Verify = verifyCheckpoint(bs, man)
		}
	} else if verify {
		doc.Verify = &verifyResult{Detail: "no checkpoint to verify"}
	}

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		printText(w, doc)
	}
	if verify && (doc.Verify == nil || !doc.Verify.OK) {
		return fmt.Errorf("verification failed: %s", doc.Verify.Detail)
	}
	return nil
}

// verifyCheckpoint re-reads every page the manifest lists through the
// checkpoint map and re-hashes the hierarchy snapshot.
func verifyCheckpoint(bs *blockstore.Store, man *core.Manifest) *verifyResult {
	v := &verifyResult{}
	for _, seg := range man.Segments {
		for _, idx := range seg.Pages {
			v.BlocksChecked++
			pid := mem.PageID{SegUID: seg.UID, Index: idx}
			data, err := bs.CheckpointBlock(pid)
			if err != nil {
				if v.Detail == "" {
					v.Detail = fmt.Sprintf("block %v: %v", pid, err)
				}
				continue
			}
			if len(data) != man.PageWords {
				if v.Detail == "" {
					v.Detail = fmt.Sprintf("block %v: %d words, manifest says pages are %d", pid, len(data), man.PageWords)
				}
				continue
			}
			v.BlocksReadable++
		}
	}
	sum := sha256.Sum256(man.Hierarchy)
	v.HierarchyOK = hex.EncodeToString(sum[:]) == man.HierarchyDigest
	if !v.HierarchyOK && v.Detail == "" {
		v.Detail = "hierarchy snapshot does not hash to the manifest digest"
	}
	v.OK = v.HierarchyOK && v.BlocksReadable == v.BlocksChecked
	return v
}

func printText(w io.Writer, doc inspection) {
	rec, st := doc.Recovery, doc.Stats
	tear := "none"
	if rec.Truncated {
		tear = fmt.Sprintf("%dB torn (journal would recover at %dB)", rec.TornBytes, rec.JournalSize)
	}
	// A batch group is one record; its entries count as writes and maps.
	fmt.Fprintf(w, "journal  %s: %dB, %d records (%d batch groups, %d writes, %d dedup maps, %d frees, %d checkpoints, %d reverts), tail: %s\n",
		doc.Journal, doc.Bytes, rec.Records, rec.Batches, rec.Writes, rec.Maps, rec.Frees, rec.Checkpoints, rec.Reverts, tear)
	fmt.Fprintf(w, "store    %d live blocks, %d distinct contents\n", st.Blocks, st.ContentBlocks)
	if doc.Manifest == nil {
		fmt.Fprintln(w, "checkpoint  none")
	} else {
		man := doc.Manifest
		pages := 0
		for _, seg := range man.Segments {
			pages += len(seg.Pages)
		}
		digest := man.HierarchyDigest
		if len(digest) > 16 {
			digest = digest[:16]
		}
		fmt.Fprintf(w, "checkpoint  vcycle %d, stage S%d, %d-word pages, %d segments, %d pages, hierarchy %s\n",
			man.VCycle, man.Stage, man.PageWords, len(man.Segments), pages, digest)
		keys := make([]string, 0, len(man.Meta))
		for k := range man.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := man.Meta[k]
			if len(v) > 48 {
				v = fmt.Sprintf("(%d bytes)", len(v))
			}
			fmt.Fprintf(w, "  meta %s = %s\n", k, v)
		}
	}
	if doc.Verify != nil {
		status := "FAIL"
		if doc.Verify.OK {
			status = "ok"
		}
		fmt.Fprintf(w, "verify   %s: %d/%d checkpoint blocks readable, hierarchy digest ok=%v",
			status, doc.Verify.BlocksReadable, doc.Verify.BlocksChecked, doc.Verify.HierarchyOK)
		if doc.Verify.Detail != "" {
			fmt.Fprintf(w, " (%s)", doc.Verify.Detail)
		}
		fmt.Fprintln(w)
	}
}
