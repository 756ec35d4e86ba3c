// Command rtrd serves validated ROA payloads from an archive directory
// over the RPKI-to-Router protocol (RFC 8210), the way a validator feeds
// routers doing route origin validation.
//
// Usage:
//
//	rtrd -archive DIR -day 2022-03-30 [-listen 127.0.0.1:8282] [-as0]
//	     [-refresh 3600] [-retry 600] [-expire 7200]
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"dropscope/internal/archive"
	"dropscope/internal/rpki"
	"dropscope/internal/rtr"
	"dropscope/internal/timex"
)

func main() {
	var (
		dir     = flag.String("archive", "", "archive directory from synthgen (required)")
		dayStr  = flag.String("day", "2022-03-30", "serve the VRP snapshot of this day")
		listen  = flag.String("listen", "127.0.0.1:8282", "listen address")
		withAS0 = flag.Bool("as0", false, "include the APNIC/LACNIC AS0 TALs")
		refresh = flag.Uint("refresh", uint(rtr.DefaultIntervals.Refresh), "End Of Data refresh interval, seconds")
		retry   = flag.Uint("retry", uint(rtr.DefaultIntervals.Retry), "End Of Data retry interval, seconds")
		expire  = flag.Uint("expire", uint(rtr.DefaultIntervals.Expire), "End Of Data expire interval, seconds")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	day, err := timex.ParseDay(*dayStr)
	if err != nil {
		fatal(err)
	}
	bundle, err := archive.LoadWithOptions(*dir, archive.LoadOptions{})
	if err != nil {
		fatal(err)
	}
	tals := rpki.DefaultTALs
	if *withAS0 {
		tals = rpki.WithAS0TALs
	}
	vrps := rtr.SnapshotVRPs(bundle.RPKI, day, tals)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rtrd: serving %d VRPs (snapshot %s) on %s\n", len(vrps), day, ln.Addr())
	srv := rtr.NewServer(1, vrps)
	srv.SetIntervals(rtr.Intervals{
		Refresh: uint32(*refresh), Retry: uint32(*retry), Expire: uint32(*expire),
	})
	if err := srv.Serve(ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtrd:", err)
	os.Exit(1)
}
