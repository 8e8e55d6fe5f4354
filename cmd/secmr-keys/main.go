// Command secmr-keys manages the grid-wide crypto material of a
// deployment. For Paillier, one key pair is generated once, its
// encryption half is distributed to every accountant and its
// decryption half to every controller (§5: "an encryption key shared
// by the accountants"). For the Shamir share backend there is no key
// pair — the sharing geometry (field prime, threshold, committee size)
// IS the material, and it is public.
//
// Usage:
//
//	secmr-keys gen  -bits 1024 -priv grid.key -pub grid.pub
//	secmr-keys gen  -scheme shamir -k 3 -n 8 -priv grid.key
//	secmr-keys info -key grid.key
//
// It also inspects a node's durable state directory (snapshot + WAL,
// see internal/persist) without loading protocol state:
//
//	secmr-keys inspect -dir /var/lib/secmr/node-3
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"

	"secmr/internal/homo"
	"secmr/internal/paillier"
	"secmr/internal/persist"
	"secmr/internal/shamir"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: secmr-keys gen [-scheme paillier|shamir] [-bits N | -k K -n N] [-priv FILE] [-pub FILE]
       secmr-keys info -key FILE
       secmr-keys inspect -dir DIR`)
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	schemeName := fs.String("scheme", "paillier", "scheme to generate material for: paillier or shamir")
	bits := fs.Int("bits", 1024, "modulus size in bits (paillier)")
	k := fs.Int("k", 2, "hiding/reconstruction threshold, matched to the grid's k-gate (shamir)")
	n := fs.Int("n", 6, "committee size: shares per value (shamir)")
	privPath := fs.String("priv", "grid.key", "private key output (controllers)")
	pubPath := fs.String("pub", "grid.pub", "public key output (accountants; paillier only)")
	fs.Parse(args)

	switch *schemeName {
	case "paillier":
		scheme, err := paillier.GenerateKey(rand.Reader, *bits)
		if err != nil {
			fatal(err)
		}
		priv, err := scheme.ExportPrivate()
		if err != nil {
			fatal(err)
		}
		pub, err := scheme.ExportPublic()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*privPath, priv, 0o600); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*pubPath, pub, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("generated %s\n  private (controllers): %s (%d bytes, mode 0600)\n  public  (accountants): %s (%d bytes)\n",
			scheme.Name(), *privPath, len(priv), *pubPath, len(pub))
	case "shamir":
		scheme, err := shamir.New(shamir.Params{K: *k, N: *n, W: 1})
		if err != nil {
			fatal(err)
		}
		blob, err := persist.ExportScheme(scheme)
		if err != nil {
			fatal(err)
		}
		// The geometry is public: there is no private half, so the one
		// output file serves both roles (0644, unlike a Paillier key).
		if err := os.WriteFile(*privPath, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("generated %s\n  geometry (all roles): %s (%d bytes)\n", scheme.Name(), *privPath, len(blob))
		describeShamir(scheme)
	default:
		fatal(fmt.Errorf("unknown scheme %q (want paillier or shamir)", *schemeName))
	}
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	keyPath := fs.String("key", "", "key file to inspect")
	fs.Parse(args)
	if *keyPath == "" {
		usage()
	}
	data, err := os.ReadFile(*keyPath)
	if err != nil {
		fatal(err)
	}
	// Two on-disk vocabularies coexist: secmr-keys' own gob blobs
	// (paillier gen) and persist key.bin blobs (kind byte + payload).
	// A gob blob never parses as a valid kind-byte frame and vice
	// versa, so try the historical format first and fall back.
	if scheme, err := paillier.Import(data); err == nil {
		kind := "public-only (accountant capability)"
		if scheme.IsPrivate() {
			kind = "private (controller capability)"
		}
		fmt.Printf("%s: %s, %s\n", *keyPath, scheme.Name(), kind)
		// Smoke-test the key: a homomorphic round trip where possible.
		c := scheme.Add(scheme.EncryptInt(20), scheme.EncryptInt(22))
		if scheme.IsPrivate() {
			fmt.Printf("self-test: D(E(20)+E(22)) = %s\n", scheme.DecryptSigned(c))
		} else {
			fmt.Println("self-test: homomorphic ops OK (no decryption key)")
		}
		return
	}
	scheme, err := persist.LoadScheme(data)
	if err != nil {
		fatal(fmt.Errorf("%s: neither a paillier key blob nor scheme key material (%v)", *keyPath, err))
	}
	fmt.Printf("%s: %s (%s key material)\n", *keyPath, scheme.Name(), persist.SchemeKindName(data[0]))
	if sh, ok := scheme.(*shamir.Scheme); ok {
		describeShamir(sh)
	}
	var dec homo.Decryptor = scheme
	c := scheme.Add(scheme.EncryptInt(20), scheme.EncryptInt(22))
	fmt.Printf("self-test: D(E(20)+E(22)) = %s\n", dec.DecryptSigned(c))
}

// describeShamir prints the share-material geometry: the numbers an
// operator needs to check a deployment against its k policy.
func describeShamir(s *shamir.Scheme) {
	p := s.Params()
	fmt.Printf("  field prime:    2^61-1 (%d)\n", s.FieldPrime())
	fmt.Printf("  threshold:      k=%d (any %d shares reveal nothing; %d reconstruct)\n",
		p.K, p.K-1, p.K)
	fmt.Printf("  committee size: n=%d shares per value (%d bytes each on the wire)\n",
		p.N, s.MaxCiphertextBytes())
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := fs.String("dir", "", "durable state directory (one node's snapshot + WAL journal)")
	fs.Parse(args)
	if *dir == "" {
		usage()
	}
	in, err := persist.Inspect(*dir)
	if err != nil {
		fatal(err)
	}
	if in.NodeID < 0 {
		fmt.Printf("%s: key material only (%s), no snapshot yet\n", *dir, in.SchemeKind)
		return
	}
	fmt.Printf("%s: node %d, scheme %s\n", *dir, in.NodeID, in.SchemeKind)
	fmt.Printf("  snapshot: generation %d, %d bytes\n", in.Gen, in.SnapshotBytes)
	fmt.Printf("  wal:      %d records, %d bytes\n", in.WALRecords, in.WALBytes)
	if in.TornBytes > 0 {
		fmt.Printf("  torn tail: %d trailing bytes past the last valid record (dropped on recovery)\n", in.TornBytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secmr-keys:", err)
	os.Exit(1)
}
