package main

import (
	"fmt"
	"math/big"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"groupranking/internal/elgamal"
	"groupranking/internal/group"
	"groupranking/internal/journal"
	"groupranking/internal/wirecodec"
	"groupranking/internal/zkp"
)

// seededReader is a deterministic io.Reader for the crypto inputs of
// the layer timings, so they too follow the run's seed.
type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.r.Uint32())
	}
	return len(p), nil
}

// timeOp times fn in batches of n calls and returns the median time
// per call over the batches, in the given unit.
func timeOp(batches, n int, unit time.Duration, fn func(i int)) float64 {
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(b*n + i)
		}
		per[b] = float64(time.Since(start)) / float64(n) / float64(unit)
	}
	return median(per)
}

// layerMetrics times the benchmark's own calls into the public
// functions of the crypto, codec and journal layers, on the group the
// workload's rankings resolve through group.ByName.
func layerMetrics(groupName string, seed uint64, dir string) (map[string]float64, error) {
	g, err := group.ByName(groupName)
	if err != nil {
		return nil, err
	}
	rng := seededReader{rand.New(rand.NewPCG(seed, 0x6c61796572))}
	const n = 16
	scalars := make([]*big.Int, n)
	elems := make([]group.Element, n)
	for i := range scalars {
		if scalars[i], err = g.RandomScalar(rng); err != nil {
			return nil, err
		}
		elems[i] = group.ExpGen(g, scalars[i])
	}
	m := map[string]float64{}

	// group: variable- and fixed-base Exp, Op, and the decode plus
	// membership check every foreign element passes.
	m["group.exp_var_us"] = timeOp(5, n, time.Microsecond, func(i int) { g.Exp(elems[i%n], scalars[(i+1)%n]) })
	table := group.NewFixedBaseTable(g, g.Generator())
	m["group.exp_fixed_us"] = timeOp(5, n, time.Microsecond, func(i int) { table.Exp(scalars[i%n]) })
	m["group.op_us"] = timeOp(5, 64, time.Microsecond, func(i int) { g.Op(elems[i%n], elems[(i+1)%n]) })
	encs := make([][]byte, n)
	for i, e := range elems {
		encs[i] = g.Encode(e)
	}
	var decodeErr error
	m["group.decode_validate_us"] = timeOp(5, n, time.Microsecond, func(i int) {
		e, err := g.Decode(encs[i%n])
		if err == nil {
			err = group.Validate(g, e)
		}
		if err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return nil, fmt.Errorf("group decode: %w", decodeErr)
	}

	// elgamal: the operations of the comparison and chain phases.
	s := elgamal.NewScheme(g)
	key, err := s.GenerateKey(rng)
	if err != nil {
		return nil, err
	}
	cts := make([]elgamal.Ciphertext, n)
	for i := range cts {
		cts[i] = s.EncryptExpR(key.Y, big.NewInt(int64(i%2)), scalars[i])
	}
	m["elgamal.scalar_mul_us"] = timeOp(5, n, time.Microsecond, func(i int) { s.ScalarMul(cts[i%n], scalars[(i+3)%n]) })
	m["elgamal.partial_decrypt_us"] = timeOp(5, n, time.Microsecond, func(i int) { s.PartialDecrypt(key.X, cts[i%n]) })
	m["elgamal.encrypt_exp_us"] = timeOp(5, n, time.Microsecond, func(i int) { s.EncryptExpR(key.Y, big.NewInt(int64(i%2)), scalars[(i+5)%n]) })
	m["elgamal.rerandomize_us"] = timeOp(5, n, time.Microsecond, func(i int) { s.ReRandomizeR(key.Y, cts[i%n], scalars[(i+7)%n]) })

	// zkp: the key-knowledge proof, one prover and participants−1
	// verifiers, as in the key-proof phase.
	proofs := make([]zkp.Transcript, n)
	var proveErr error
	m["zkp.prove_us"] = timeOp(5, n/4, time.Microsecond, func(i int) {
		var err error
		if proofs[i%n], err = zkp.Prove(g, key.X, participants-1, rng); err != nil {
			proveErr = err
		}
	})
	if proveErr != nil {
		return nil, proveErr
	}
	verified := true
	m["zkp.verify_us"] = timeOp(5, n/4, time.Microsecond, func(i int) {
		verified = verified && zkp.VerifyTranscript(g, key.Y, proofs[i%n])
	})
	if !verified {
		return nil, fmt.Errorf("zkp: an honest proof failed to verify")
	}

	// wirecodec: one ciphertext frame, encoded, and decoded with both
	// components validated as the protocol does for a foreign frame.
	frames := make([][]byte, n)
	var codecErr error
	m["wirecodec.ciphertext_marshal_ns"] = timeOp(5, 256, time.Nanosecond, func(i int) {
		b, err := wirecodec.Marshal(cts[i%n])
		if err != nil {
			codecErr = err
		}
		frames[i%n] = b
	})
	m["wirecodec.ciphertext_unmarshal_ns"] = timeOp(5, 64, time.Nanosecond, func(i int) {
		v, err := wirecodec.Unmarshal(frames[i%n])
		if err == nil {
			ct, ok := v.(elgamal.Ciphertext)
			if !ok {
				err = fmt.Errorf("decoded %T", v)
			} else if err = group.Validate(g, ct.C); err == nil {
				err = group.Validate(g, ct.C1)
			}
		}
		if err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("wirecodec: %w", codecErr)
	}

	// journal: appending a ciphertext frame and forcing the file to
	// stable storage, on the disk the run's scratch directory is on.
	j, err := journal.Open(filepath.Join(dir, "layer.journal"))
	if err != nil {
		return nil, err
	}
	defer os.Remove(j.Path())
	defer j.Close()
	appendUS := make([]float64, 0, 64)
	fsyncMS := make([]float64, 0, 16)
	for i := 0; i < 64; i++ {
		start := time.Now()
		if err := j.LogSend(1, i, len(frames[i%n]), uint64(i), cts[i%n]); err != nil {
			return nil, err
		}
		appendUS = append(appendUS, float64(time.Since(start))/float64(time.Microsecond))
		if i%4 == 3 {
			start = time.Now()
			if err := j.Sync(); err != nil {
				return nil, err
			}
			fsyncMS = append(fsyncMS, ms(time.Since(start)))
		}
	}
	m["journal.append_us_p50"] = median(appendUS)
	m["journal.fsync_ms_p50"] = median(fsyncMS)
	return m, nil
}
