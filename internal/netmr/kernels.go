package netmr

import (
	"fmt"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
)

// MapKernel is a named, registered computation the TaskTrackers can
// run. A kernel's output takes one of two shapes, fixed by whether it
// has a Reduce:
//
//   - With Reduce (wordcount, pi): Map consumes one task's input (block
//     data, or samples for compute kernels) and returns a gob-encoded
//     partial; the partials ride the heartbeats and Reduce folds them,
//     ordered by task ID, into the job result at the JobTracker.
//   - Without Reduce (sort, aes-ctr): the job's output is its raw
//     final-phase pieces. Each stays in its tracker's shuffle store,
//     and Client.WaitOutput streams them to the client in task order,
//     so the pieces must concatenate into the result: aes-ctr's map
//     outputs in block order, sort's range-routed partitions in key
//     order. The JobTracker never holds these output bytes.
//
// Kernels with large intermediate output implement the distributed
// shuffle pair: Partition runs map-side and splits the task's output
// into R partitions held in the tracker's shuffle store; Merge runs as
// a reduce task and folds the per-mapper pieces of one partition
// (ordered by map task ID) into that partition's output — a Reduce
// partial when the kernel has Reduce, a raw output piece otherwise.
// With both set and JobSpec.NumReducers > 0, map output bytes never
// cross the JobTracker.
type MapKernel struct {
	// Map runs on the TaskTracker. data is nil for compute tasks. A
	// kernel without Map (sort) runs only on the shuffle path.
	Map func(task Task, data []byte) ([]byte, error)
	// Reduce runs on the JobTracker when all tasks are done: over the
	// map outputs on the centralized path, over the reduce-task
	// outputs (ordered by partition) on the shuffle path. Nil makes
	// the kernel's output the streamed raw pieces (see above).
	Reduce func(partials [][]byte) ([]byte, error)
	// Partition runs on the TaskTracker instead of Map when the
	// distributed shuffle is on: it returns exactly parts payloads,
	// one per partition (empty partitions included).
	Partition func(task Task, data []byte, parts int) ([][]byte, error)
	// Merge runs on the reducing TaskTracker: fold one partition's
	// per-mapper pieces into the partition's reduce output.
	Merge func(pieces [][]byte) ([]byte, error)
	// AccelMap, when set, is Map's accelerated variant: it offloads
	// the map work to the tracker's device and MUST produce bytes
	// bit-identical to Map's. It runs only on accelerator-equipped
	// trackers for tasks whose Mapper is MapperCell; returning
	// errAccelFallback hands the task back to the host path.
	AccelMap func(dev *AccelDevice, task Task, data []byte) ([]byte, error)
	// AccelPartition is Partition's accelerated variant under the same
	// contract.
	AccelPartition func(dev *AccelDevice, task Task, data []byte, parts int) ([][]byte, error)
}

// streams reports whether the kernel's output is its streamed raw
// pieces rather than a Reduce result.
func (k MapKernel) streams() bool { return k.Reduce == nil }

// kernelRegistry holds the built-in kernels; RegisterKernel extends it
// (must happen before daemons start — the registry is read-only at
// runtime).
var kernelRegistry = map[string]MapKernel{}

// RegisterKernel adds a kernel under a unique name.
func RegisterKernel(name string, k MapKernel) {
	if _, dup := kernelRegistry[name]; dup {
		panic(fmt.Sprintf("netmr: kernel %q already registered", name))
	}
	kernelRegistry[name] = k
}

// lookupKernel fetches a registered kernel.
func lookupKernel(name string) (MapKernel, error) {
	k, ok := kernelRegistry[name]
	if !ok {
		return MapKernel{}, fmt.Errorf("netmr: unknown kernel %q", name)
	}
	return k, nil
}

// AESArgs parameterizes the aes-ctr kernel.
type AESArgs struct {
	Key []byte
	IV  []byte
	// Offset of each task's block is derived from task ID x block
	// size; BlockBytes carries that size.
	BlockBytes int64
}

// wordCountPartial is the wordcount kernel's map output.
type wordCountPartial struct {
	Counts map[string]int64
}

// piPartial is the pi kernel's map output.
type piPartial struct {
	Inside int64
	Total  int64
}

// PiResult is the pi kernel's reduced output.
type PiResult struct {
	Inside int64
	Total  int64
	Pi     float64
}

func init() {
	// mergeWordCounts folds wordCountPartial payloads into one table.
	mergeWordCounts := func(pieces [][]byte) (map[string]int64, error) {
		total := make(map[string]int64)
		for _, p := range pieces {
			var part wordCountPartial
			if err := rpcnet.Unmarshal(p, &part); err != nil {
				return nil, err
			}
			for w, n := range part.Counts {
				total[w] += n
			}
		}
		return total, nil
	}

	// splitWordCounts routes each word's count to the partition its
	// hash selects, so a reduce task owns a disjoint key range. Shared
	// by the host and accelerated Partition variants — only how the
	// per-block table is produced differs.
	splitWordCounts := func(counts map[string]int64, parts int) ([][]byte, error) {
		split := make([]map[string]int64, parts)
		for p := range split {
			split[p] = make(map[string]int64)
		}
		for w, n := range counts {
			split[kernels.PartitionIndexString(w, parts)][w] = n
		}
		out := make([][]byte, parts)
		for p := range split {
			payload, err := rpcnet.Marshal(wordCountPartial{Counts: split[p]})
			if err != nil {
				return nil, err
			}
			out[p] = payload
		}
		return out, nil
	}

	RegisterKernel("wordcount", MapKernel{
		Map: func(_ Task, data []byte) ([]byte, error) {
			return rpcnet.Marshal(wordCountPartial{Counts: kernels.WordCount(data)})
		},
		Reduce: func(partials [][]byte) ([]byte, error) {
			total, err := mergeWordCounts(partials)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(total)
		},
		Partition: func(_ Task, data []byte, parts int) ([][]byte, error) {
			return splitWordCounts(kernels.WordCount(data), parts)
		},
		Merge: func(pieces [][]byte) ([]byte, error) {
			total, err := mergeWordCounts(pieces)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(wordCountPartial{Counts: total})
		},
		// Accelerated variants: the block's table comes off the SPEs
		// (separator-aligned sub-blocks, commutative merge), then the
		// same marshalling as the host path — bit-identical results.
		AccelMap: func(dev *AccelDevice, _ Task, data []byte) ([]byte, error) {
			counts, err := dev.WordCount(data)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(wordCountPartial{Counts: counts})
		},
		AccelPartition: func(dev *AccelDevice, _ Task, data []byte, parts int) ([][]byte, error) {
			counts, err := dev.WordCount(data)
			if err != nil {
				return nil, err
			}
			return splitWordCounts(counts, parts)
		},
	})

	RegisterKernel("aes-ctr", MapKernel{
		Map: func(task Task, data []byte) ([]byte, error) {
			var args AESArgs
			if err := rpcnet.Unmarshal(task.Args, &args); err != nil {
				return nil, err
			}
			c, err := kernels.NewCipher(args.Key)
			if err != nil {
				return nil, err
			}
			out := make([]byte, len(data))
			offset := int64(task.TaskID) * args.BlockBytes
			kernels.CTRStreamFast(c, args.IV, offset, out, data)
			return out, nil
		},
		// Accelerated variant: the same seekable CTR stream, 4 KB
		// blocks double-buffered through the SPE local stores.
		AccelMap: func(dev *AccelDevice, task Task, data []byte) ([]byte, error) {
			var args AESArgs
			if err := rpcnet.Unmarshal(task.Args, &args); err != nil {
				return nil, err
			}
			c, err := kernels.NewCipher(args.Key)
			if err != nil {
				return nil, err
			}
			return dev.CTRStream(c, args.IV, int64(task.TaskID)*args.BlockBytes, data)
		},
	})

	RegisterKernel("pi", MapKernel{
		Map: func(task Task, _ []byte) ([]byte, error) {
			inside := kernels.CountInside(task.Seed, task.Samples)
			return rpcnet.Marshal(piPartial{Inside: inside, Total: task.Samples})
		},
		// Accelerated variant: the task's sample range fans out over
		// the SPEs, each seeking into the exact splitmix64 stream —
		// the summed tally equals the host kernel's single pass.
		AccelMap: func(dev *AccelDevice, task Task, _ []byte) ([]byte, error) {
			inside, err := dev.CountInside(task.Seed, task.Samples)
			if err != nil {
				return nil, err
			}
			return rpcnet.Marshal(piPartial{Inside: inside, Total: task.Samples})
		},
		Reduce: func(partials [][]byte) ([]byte, error) {
			var inside, total int64
			for _, p := range partials {
				var part piPartial
				if err := rpcnet.Unmarshal(p, &part); err != nil {
					return nil, err
				}
				inside += part.Inside
				total += part.Total
			}
			return rpcnet.Marshal(PiResult{
				Inside: inside,
				Total:  total,
				Pi:     kernels.EstimatePi(inside, total),
			})
		},
	})

	RegisterKernel("sort", MapKernel{
		// TeraSort shape: each map task sorts its block's 100-byte
		// records where they live and cuts the sorted run at the job's
		// split keys (kernels.RangePartitioner; no keys is one
		// partition). The router is monotone in key order, so every
		// partition is one contiguous slice of the run, and equal keys
		// meet in one reduce task. Merge folds a partition's runs into
		// one; partition p's keys all precede partition p+1's, so the
		// streamed reduce outputs concatenate into the globally sorted
		// file with no final merge. Payloads are raw record runs. The
		// submitter must pick a DFS block size that is a multiple of the
		// record size.
		Partition: func(task Task, data []byte, parts int) ([][]byte, error) {
			rp := kernels.NewRangePartitioner(task.SplitKeys)
			if rp.Parts() != parts {
				return nil, fmt.Errorf("netmr: %d split keys for %d partitions", len(task.SplitKeys), parts)
			}
			run := append([]byte(nil), data...)
			if err := kernels.SortRecords(run); err != nil {
				return nil, err
			}
			out := make([][]byte, parts)
			lo := 0
			for p := range out {
				hi := lo
				for hi < len(run) && rp.Index(run[hi:hi+kernels.SortKeyBytes]) == p {
					hi += kernels.SortRecordBytes
				}
				out[p] = run[lo:hi]
				lo = hi
			}
			return out, nil
		},
		Merge: kernels.MergeSortedRuns,
	})
}
