package irr

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"dropscope/internal/ingest"
	"dropscope/internal/timex"
)

// WriteJournal serializes the database's journal: each event is a
// "%ADD <date>" or "%DEL <date>" directive followed by the RPSL object
// and a blank line. The format is lossless and replayable.
func (db *DB) WriteJournal(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range db.events {
		op := "ADD"
		if e.Op == OpDel {
			op = "DEL"
		}
		if _, err := fmt.Fprintf(bw, "%%%s %s\n", op, e.Day.Compact()); err != nil {
			return err
		}
		if err := Print(bw, []*Object{e.Object}); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseJournal reads the format WriteJournal emits, replaying it into a
// fresh database. The first malformed entry fails the parse; use
// ParseJournalHealth to quarantine bad entries instead.
func ParseJournal(raw []byte) (*DB, error) {
	return parseJournal(raw, nil)
}

// ParseJournalHealth is the lenient variant of ParseJournal: a journal
// entry that cannot be parsed or replayed is skipped and counted on src
// rather than failing the journal. Replayed entries are also counted on
// src. A nil src parses strictly, as ParseJournal does.
func ParseJournalHealth(raw []byte, src *ingest.Source) (*DB, error) {
	return parseJournal(raw, src)
}

func parseJournal(raw []byte, src *ingest.Source) (*DB, error) {
	db := &DB{}
	chunks := strings.Split(string(raw), "%")
	skip := func(err error) error {
		if src != nil {
			src.Skip(ingest.BadLine)
			return nil
		}
		return err
	}
	for _, chunk := range chunks {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		nl := strings.IndexByte(chunk, '\n')
		if nl < 0 {
			if err := skip(fmt.Errorf("irr: malformed journal entry %q", chunk)); err != nil {
				return nil, err
			}
			continue
		}
		header := strings.Fields(chunk[:nl])
		if len(header) != 2 {
			if err := skip(fmt.Errorf("irr: malformed journal header %q", chunk[:nl])); err != nil {
				return nil, err
			}
			continue
		}
		day, err := timex.ParseDay(header[1])
		if err != nil {
			if err := skip(err); err != nil {
				return nil, err
			}
			continue
		}
		objs, err := Parse(strings.NewReader(chunk[nl+1:]))
		if err != nil {
			if err := skip(err); err != nil {
				return nil, err
			}
			continue
		}
		if len(objs) != 1 {
			if err := skip(fmt.Errorf("irr: journal entry with %d objects", len(objs))); err != nil {
				return nil, err
			}
			continue
		}
		switch header[0] {
		case "ADD":
			err = db.Add(day, objs[0])
		case "DEL":
			err = db.Del(day, objs[0])
		default:
			err = fmt.Errorf("irr: unknown journal op %q", header[0])
		}
		if err != nil {
			if err := skip(err); err != nil {
				return nil, err
			}
			continue
		}
		if src != nil {
			src.Accept(1)
		}
	}
	return db, nil
}
