//! External merge sort with a bounded memory budget.
//!
//! The paper sorts both join relations with a commercial external sort
//! (Opt-Tech Sort) that uses a user-specified amount of memory; Table 3 shows
//! sorting dominating the merge-join's time as the inner relation grows. This
//! module reproduces that component: stable in-memory run generation within a
//! byte budget of `memory_pages × page_size`, then k-way merging with at most
//! `memory_pages − 1` input runs per pass. When the memory budget is at least
//! the square root of the file size (the common case the paper cites from
//! \[37\], \[9\]), sorting takes exactly two passes: one read+write to form runs
//! and one read(+write) to merge.
//!
//! The sort is keyed: callers pass a `key` function that extracts a sort key
//! from a record's bytes and a `cmp` that orders keys. Each key comes with a
//! normalized [`Prefix`] — a fixed-width image that orders like the key
//! wherever two prefixes differ — so most comparisons are two integer
//! compares, and `cmp` runs only on a prefix tie (the "normalized keys" of
//! Graefe, *Implementing Sorting in Database Systems*, 2006). The sort calls
//! `key` exactly once per record it reads — once on input and once per merge-
//! pass read — and keeps the key beside its record (in the run-generation
//! batch, and as each run's head in the merge), so comparisons never re-decode
//! a record. A key that fails to extract (a corrupt record) ends the sort with
//! that error. The engine's key, for example, is the join attribute's
//! `fuzzy_core::interval_order::OrderKey` at the step's α-cut level:
//!
//! ```text
//! key: |r| Tuple::order_key_at(r, attr, alpha).map(|k| (k.prefix(), k))
//! cmp: OrderKey::cmp_key
//! ```
//!
//! `Tuple::order_key_at` builds the key straight from the record's bytes,
//! without decoding a value, so a comparison compares the α-cut endpoints as
//! integers and falls back to the breakpoints (or text) only when they tie,
//! with no decoding and no α-cut arithmetic.
//!
//! Records are never allocated one by one. Run generation reads each record
//! in place from the scan's page image and appends its bytes to one byte
//! arena per batch; the batch's entries are `(key, offset, length)` triples,
//! and the sort moves only 24-byte `(prefix, index)` entries. The arena *is* the memory budget — a batch is
//! cut when it holds `memory_pages × page_size` bytes — and the keys sit
//! outside it, so run boundaries depend on the record bytes alone. The merge
//! keeps one reused buffer per input run for that run's head record, next to
//! the head's key.
//!
//! All run files live on the same simulated disk as the input, so every spill
//! is charged to the I/O counters. [`SortStats`] also carries the wall time
//! of the two phases, run generation and merging, for `EXPLAIN ANALYZE`.

use crate::disk::{credit_thread_io, thread_io, IoSnapshot, SimDisk};
use crate::error::{panic_message, Result, StorageError};
use crate::file::{HeapFile, RecordScan};
use std::cmp::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A sort key's normalized prefix. The contract with the full key order
/// `cmp` is `a.0 < b.0 ⇒ cmp(&a.1, &b.1) == Less` for keyed pairs `a, b`:
/// prefixes that differ decide the comparison, and equal prefixes defer to
/// `cmp`.
pub type Prefix = [u64; 2];

/// Statistics of one external sort execution.
///
/// Equality compares the exact counters only: the phase times are wall-clock
/// and differ from run to run.
#[derive(Debug, Clone, Copy)]
pub struct SortStats {
    /// Initial sorted runs generated.
    pub initial_runs: usize,
    /// Merge passes over the data after run generation (0 when a single run
    /// — or an already-sorted tiny input — needed no merging).
    pub merge_passes: usize,
    /// Comparisons performed (run generation + merging).
    pub comparisons: u64,
    /// Wall time of run generation: reading the input, keying, sorting and
    /// spilling the runs.
    pub gen_time: Duration,
    /// Wall time of the merge passes.
    pub merge_time: Duration,
}

impl PartialEq for SortStats {
    fn eq(&self, other: &SortStats) -> bool {
        (self.initial_runs, self.merge_passes, self.comparisons)
            == (other.initial_runs, other.merge_passes, other.comparisons)
    }
}

impl Eq for SortStats {}

/// Sorts `input` by the order the keyed pairs `key` extracts from its
/// records take — prefix first, then `cmp` on a prefix tie — using at most
/// `memory_pages` pages of working memory, and returns a new sorted heap file
/// and statistics.
///
/// The memory budget counts record bytes only; the keys held beside the
/// records are not charged to it, so run boundaries depend on the records
/// alone. The sort is stable: run generation uses std's stable sort, and the
/// merge takes a tie from the earlier run.
pub fn external_sort<K, KF, CF>(
    disk: &SimDisk,
    input: &HeapFile,
    memory_pages: usize,
    key: KF,
    cmp: CF,
) -> Result<(HeapFile, SortStats)>
where
    KF: Fn(&[u8]) -> Result<(Prefix, K)>,
    CF: Fn(&K, &K) -> Ordering,
{
    let mut run_gen = RunGen::new(disk, memory_pages, &key, &cmp);
    let mut scan = input.scan();
    while let Some(rec) = scan.next_record() {
        run_gen.push(rec?)?;
    }
    run_gen.finish()
}

/// Sorts a stream of already-decoded records with the same run-generation
/// and merge machinery as [`external_sort`], without requiring the input to
/// exist as a heap file first. This is the pipelined executor's sort
/// boundary: join output feeds straight into run generation, so the only
/// spill is the sort's own (batch cuts, run contents, comparison counts, and
/// run-file I/O are exactly what [`external_sort`] would have produced had
/// the records been materialized and re-scanned — minus that materialization
/// and re-scan).
pub fn external_sort_records<I, K, KF, CF>(
    disk: &SimDisk,
    records: I,
    memory_pages: usize,
    key: KF,
    cmp: CF,
) -> Result<(HeapFile, SortStats)>
where
    I: IntoIterator<Item = Vec<u8>>,
    KF: Fn(&[u8]) -> Result<(Prefix, K)>,
    CF: Fn(&K, &K) -> Ordering,
{
    let mut run_gen = RunGen::new(disk, memory_pages, &key, &cmp);
    for rec in records {
        run_gen.push(&rec)?;
    }
    run_gen.finish()
}

/// Stable-sorts `items` by their prefixes, calling `tie` only where two
/// prefixes are equal, and returns the items' indices in sorted order. Each
/// comparator call adds one to `comparisons`, whether or not it reached
/// `tie`.
///
/// The sort moves 24-byte `(prefix, index)` entries, never the items. When
/// `prefix` and `tie` keep the [`Prefix`] contract with a key order, the
/// comparator's outcomes are exactly that order's, so the result is the one
/// a stable sort on the key order alone gives. At most `u32::MAX` items.
pub fn sort_keys<T>(
    items: &[T],
    prefix: impl Fn(&T) -> Prefix,
    tie: impl Fn(&T, &T) -> Ordering,
    comparisons: &mut u64,
) -> impl Iterator<Item = usize> {
    debug_assert!(u32::try_from(items.len()).is_ok(), "{} items overflow a u32", items.len());
    let mut entries: Vec<(Prefix, u32)> =
        items.iter().enumerate().map(|(i, item)| (prefix(item), i as u32)).collect();
    entries.sort_by(|a, b| {
        *comparisons += 1;
        a.0.cmp(&b.0).then_with(|| tie(&items[a.1 as usize], &items[b.1 as usize]))
    });
    entries.into_iter().map(|(_, i)| i as usize)
}

/// One run-generation batch: the records' bytes back to back in one arena,
/// and per record its key (`()` before keying) and its span in the arena.
struct Batch<K> {
    arena: Vec<u8>,
    entries: Vec<(K, usize, usize)>,
}

impl<K> Batch<K> {
    fn new() -> Batch<K> {
        Batch { arena: Vec::new(), entries: Vec::new() }
    }

    /// Appends one record's bytes with its key.
    fn push(&mut self, rec: &[u8], key: K) {
        self.entries.push((key, self.arena.len(), rec.len()));
        self.arena.extend_from_slice(rec);
    }

    fn record(&self, start: usize, len: usize) -> &[u8] {
        &self.arena[start..start + len]
    }
}

impl<K> Batch<(Prefix, K)> {
    /// Sorts the entries on their keyed pairs and spills the batch as a run,
    /// leaving the batch empty (its buffers keep their capacity).
    fn write_run<CF>(&mut self, disk: &SimDisk, cmp: &CF, comparisons: &mut u64) -> Result<HeapFile>
    where
        CF: Fn(&K, &K) -> Ordering,
    {
        let order = sort_keys(&self.entries, |e| e.0 .0, |a, b| cmp(&a.0 .1, &b.0 .1), comparisons);
        let run = HeapFile::create(disk);
        run.load(order.map(|i| {
            let (_, start, len) = self.entries[i];
            self.record(start, len)
        }))?;
        self.arena.clear();
        self.entries.clear();
        Ok(run)
    }
}

impl Batch<()> {
    /// Keys every record of an unkeyed batch, keeping the arena.
    fn keyed<K, KF>(self, key: &KF) -> Result<Batch<K>>
    where
        KF: Fn(&[u8]) -> Result<K>,
    {
        let entries = self
            .entries
            .iter()
            .map(|&((), start, len)| Ok((key(self.record(start, len))?, start, len)))
            .collect::<Result<_>>()?;
        Ok(Batch { arena: self.arena, entries })
    }
}

/// How many initial runs run generation cuts from `records` records of
/// `record_bytes` bytes in total under a `memory_pages` budget: a batch is
/// cut as soon as its arena holds `memory_pages × page_size` record bytes,
/// so each run takes the fewest records whose bytes reach the budget. Exact
/// when the records are of equal size (padded tables); otherwise it assumes
/// the mean size.
pub fn estimated_initial_runs(
    records: u64,
    record_bytes: u64,
    memory_pages: usize,
    page_size: usize,
) -> u64 {
    if records == 0 {
        return 0;
    }
    let budget = memory_pages.max(2) as u128 * page_size as u128;
    let per_run = (budget * u128::from(records)).div_ceil(u128::from(record_bytes.max(1)));
    u128::from(records).div_ceil(per_run.max(1)) as u64
}

/// Serial run generation: keys each record as it arrives, cuts a batch when
/// its arena reaches the byte budget, and spills it as a run.
struct RunGen<'a, K, KF, CF> {
    disk: &'a SimDisk,
    memory_pages: usize,
    budget_bytes: usize,
    key: &'a KF,
    cmp: &'a CF,
    batch: Batch<(Prefix, K)>,
    runs: Vec<HeapFile>,
    comparisons: u64,
    started: Instant,
}

impl<'a, K, KF, CF> RunGen<'a, K, KF, CF>
where
    KF: Fn(&[u8]) -> Result<(Prefix, K)>,
    CF: Fn(&K, &K) -> Ordering,
{
    fn new(disk: &'a SimDisk, memory_pages: usize, key: &'a KF, cmp: &'a CF) -> Self {
        let memory_pages = memory_pages.max(2);
        RunGen {
            disk,
            memory_pages,
            budget_bytes: memory_pages * disk.page_size(),
            key,
            cmp,
            batch: Batch::new(),
            runs: Vec::new(),
            comparisons: 0,
            started: Instant::now(),
        }
    }

    fn push(&mut self, rec: &[u8]) -> Result<()> {
        self.batch.push(rec, (self.key)(rec)?);
        if self.batch.arena.len() >= self.budget_bytes {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        let run = self.batch.write_run(self.disk, self.cmp, &mut self.comparisons)?;
        self.runs.push(run);
        Ok(())
    }

    /// Spills the last partial batch and merges the runs.
    fn finish(mut self) -> Result<(HeapFile, SortStats)> {
        if !self.batch.entries.is_empty() {
            self.spill()?;
        }
        let gen_time = self.started.elapsed();
        merge_runs(
            self.disk,
            self.runs,
            self.memory_pages,
            self.key,
            self.cmp,
            self.comparisons,
            gen_time,
        )
    }
}

/// Multi-threaded variant of [`external_sort`]: `threads` workers extract
/// keys, sort, and spill runs concurrently while this thread scans the input
/// and cuts batches. With `threads <= 1` this is exactly [`external_sort`].
///
/// Equality guarantee: batch boundaries, run contents, comparison counts,
/// and physical I/O counts are identical to the serial sort for any thread
/// count — only wall-clock time changes. The input scan cuts batches at the
/// full memory budget exactly like the serial path (sorting identical
/// batches performs identical comparisons), workers only key, sort, and
/// write whole runs (same page counts, merged in batch order), and the k-way
/// merge stays serial. The price is working memory: up to `threads + 1`
/// batch arenas (each `memory_pages` big) are in flight at once, a deliberate
/// trade so parallel results and accounting stay bit-identical to serial
/// (see DESIGN.md).
///
/// Workers start as batches need them, up to `threads`: an input that fits
/// one batch (certainly one of no more than `memory_pages` pages, which
/// goes straight to [`external_sort`]) is sorted on the calling thread
/// alone, exactly as [`external_sort`] sorts it. Each worker's page transfers are credited to
/// the calling thread's tally ([`crate::thread_io`]), so the caller meters
/// the whole sort as if it had run serially.
///
/// A worker that panics (in `key`, `cmp` or the sort) fails the sort with
/// [`StorageError::WorkerPanic`]; the other workers finish their batches and
/// are joined first, and the disk stays usable.
pub fn external_sort_parallel<K, KF, CF>(
    disk: &SimDisk,
    input: &HeapFile,
    memory_pages: usize,
    threads: usize,
    key: KF,
    cmp: CF,
) -> Result<(HeapFile, SortStats)>
where
    K: Send,
    KF: Fn(&[u8]) -> Result<(Prefix, K)> + Sync,
    CF: Fn(&K, &K) -> Ordering + Sync,
{
    let memory_pages = memory_pages.max(2);
    // A file of no more pages than the budget holds fewer record bytes than
    // the budget, so it is one batch: nothing to hand a worker.
    if threads <= 1 || input.num_pages() <= memory_pages as u64 {
        return external_sort(disk, input, memory_pages, key, cmp);
    }
    let started = Instant::now();
    let budget_bytes = memory_pages * disk.page_size();
    let (key, cmp) = (&key, &cmp);

    // --- Parallel run generation -------------------------------------------
    // Rendezvous channel: the producer hands a full unkeyed arena batch
    // straight to an idle worker, so at most `threads` batches are being
    // keyed and sorted while one more is being accumulated. Workers start on
    // demand, one per handed-off batch until there are `threads`: a sort
    // starts no more workers than it has batches, and none when its input
    // fits one batch. Until the last worker starts, every send follows the
    // start of a fresh one; after that only the workers hold the receiver,
    // so once every worker is gone a send fails instead of blocking.
    let (tx, rx) = mpsc::sync_channel::<Indexed>(0);
    let (produced, joined) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        let started_workers = &mut workers;
        let mut rx = Some(Arc::new(Mutex::new(rx)));
        // Owns `tx`, so the channel closes, ending the workers' loops, once
        // the producer is done with it.
        let hand_off = move |msg| {
            if let Some(shared) = &rx {
                let shared = Arc::clone(shared);
                started_workers.push(scope.spawn(move || sort_worker(&shared, disk, key, cmp)));
                if started_workers.len() == threads {
                    rx = None;
                }
            }
            tx.send(msg).is_ok()
        };
        let produced = produce_batches(input, budget_bytes, hand_off);
        // Join every worker before looking at any result, so a panic in one
        // never leaves another unjoined.
        (produced, workers.into_iter().map(|h| h.join()).collect::<Vec<_>>())
    });
    let mut slots: Vec<(usize, Result<HeapFile>)> = Vec::new();
    let mut comparisons: u64 = 0;
    for worker in joined {
        let (runs, n, io) =
            worker.map_err(|p| StorageError::WorkerPanic(panic_message(p.as_ref())))?;
        credit_thread_io(io);
        slots.extend(runs);
        comparisons += n;
    }
    if let Some(lone) = produced? {
        let run =
            lone.keyed(key).and_then(|mut keyed| keyed.write_run(disk, cmp, &mut comparisons));
        slots.push((0, run));
    }
    slots.sort_by_key(|(index, _)| *index);
    let runs = slots.into_iter().map(|(_, res)| res).collect::<Result<Vec<_>>>()?;
    let gen_time = started.elapsed();
    // --- Merge passes: identical to the serial path ------------------------
    merge_runs(disk, runs, memory_pages, key, cmp, comparisons, gen_time)
}

/// One batch of the parallel sort's producer, with its index in input order.
type Indexed = (usize, Batch<()>);

/// A parallel sort worker: keys, sorts and spills every batch it receives
/// until the channel closes. Returns its runs with their batch indices, its
/// comparisons, and the page transfers it made, for the caller to credit.
fn sort_worker<K, KF, CF>(
    rx: &Mutex<mpsc::Receiver<Indexed>>,
    disk: &SimDisk,
    key: &KF,
    cmp: &CF,
) -> (Vec<(usize, Result<HeapFile>)>, u64, IoSnapshot)
where
    KF: Fn(&[u8]) -> Result<(Prefix, K)>,
    CF: Fn(&K, &K) -> Ordering,
{
    let io0 = thread_io();
    let mut runs = Vec::new();
    let mut comparisons: u64 = 0;
    loop {
        let msg = rx.lock().expect("sort channel lock").recv();
        let Ok((index, batch)) = msg else { break };
        let run =
            batch.keyed(key).and_then(|mut keyed| keyed.write_run(disk, cmp, &mut comparisons));
        runs.push((index, run));
    }
    (runs, comparisons, thread_io().since(&io0))
}

/// The parallel sort's producer: scans `input` sequentially, cuts batches at
/// exactly the byte budget as in the serial path, and hands each off with
/// its index. A full batch waits until a record follows it, so an input that
/// fits one batch hands nothing off: that batch comes back for the caller to
/// sort itself. A failed hand-off means every worker is gone; the caller's
/// join of the workers says why, so the producer just stops.
fn produce_batches(
    input: &HeapFile,
    budget_bytes: usize,
    mut hand_off: impl FnMut(Indexed) -> bool,
) -> Result<Option<Batch<()>>> {
    let mut scan = input.scan();
    let mut batch: Batch<()> = Batch::new();
    let mut full: Option<Batch<()>> = None;
    let mut sent = 0usize;
    while let Some(rec) = scan.next_record() {
        let rec = rec?;
        if let Some(cut) = full.take() {
            if !hand_off((sent, cut)) {
                return Ok(None);
            }
            sent += 1;
        }
        batch.push(rec, ());
        if batch.arena.len() >= budget_bytes {
            full = Some(std::mem::replace(&mut batch, Batch::new()));
        }
    }
    let last = full.or_else(|| (!batch.entries.is_empty()).then_some(batch));
    match last {
        Some(lone) if sent == 0 => Ok(Some(lone)),
        // As above: a failed hand-off leaves the error to the join.
        Some(last) => {
            hand_off((sent, last));
            Ok(None)
        }
        None => Ok(None),
    }
}

/// Merges the initial runs, `memory_pages − 1` at a time, until one sorted
/// run remains (an empty sorted file when there were no runs).
fn merge_runs<K, KF, CF>(
    disk: &SimDisk,
    mut runs: Vec<HeapFile>,
    memory_pages: usize,
    key: &KF,
    cmp: &CF,
    mut comparisons: u64,
    gen_time: Duration,
) -> Result<(HeapFile, SortStats)>
where
    KF: Fn(&[u8]) -> Result<(Prefix, K)>,
    CF: Fn(&K, &K) -> Ordering,
{
    let started = Instant::now();
    let initial_runs = runs.len();
    let fan_in = (memory_pages - 1).max(2);
    let mut merge_passes = 0usize;
    while runs.len() > 1 {
        merge_passes += 1;
        let mut next: Vec<HeapFile> = Vec::new();
        for group in runs.chunks(fan_in) {
            next.push(merge_group(disk, group, key, cmp, &mut comparisons)?);
        }
        runs = next;
    }
    let sorted = runs.pop().unwrap_or_else(|| HeapFile::create(disk));
    let merge_time = started.elapsed();
    Ok((sorted, SortStats { initial_runs, merge_passes, comparisons, gen_time, merge_time }))
}

fn merge_group<K, KF, CF>(
    disk: &SimDisk,
    group: &[HeapFile],
    key: &KF,
    cmp: &CF,
    comparisons: &mut u64,
) -> Result<HeapFile>
where
    KF: Fn(&[u8]) -> Result<(Prefix, K)>,
    CF: Fn(&K, &K) -> Ordering,
{
    if group.len() == 1 {
        return Ok(group[0].clone());
    }
    // Reads a run's next record into that run's head buffer and keys it.
    let read_head = |cur: &mut RecordScan<'_>, buf: &mut Vec<u8>| -> Result<Option<(Prefix, K)>> {
        match cur.next_record() {
            None => Ok(None),
            Some(rec) => {
                buf.clear();
                buf.extend_from_slice(rec?);
                key(buf).map(Some)
            }
        }
    };
    let mut cursors: Vec<RecordScan<'_>> = group.iter().map(HeapFile::scan).collect();
    // Per run: its head record's bytes in a reused buffer, and the head's
    // key; a linear min scan over the keys per output record, which compares
    // the head prefixes first. Fan-in is small enough that a tournament tree
    // is not worth its complexity here.
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); cursors.len()];
    let mut heads: Vec<Option<(Prefix, K)>> = Vec::with_capacity(cursors.len());
    for (cur, buf) in cursors.iter_mut().zip(&mut bufs) {
        heads.push(read_head(cur, buf)?);
    }
    let out = HeapFile::create(disk);
    let mut w = out.bulk_writer();
    loop {
        let mut min: Option<(usize, &(Prefix, K))> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(k) = head else { continue };
            min = match min {
                None => Some((i, k)),
                Some((m, mk)) => {
                    *comparisons += 1;
                    if k.0.cmp(&mk.0).then_with(|| cmp(&k.1, &mk.1)) == Ordering::Less {
                        Some((i, k))
                    } else {
                        Some((m, mk))
                    }
                }
            };
        }
        let Some((i, _)) = min else { break };
        w.append(&bufs[i])?;
        heads[i] = read_head(&mut cursors[i], &mut bufs[i])?;
    }
    w.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use std::sync::atomic::{self, AtomicUsize};

    type Sorted = Result<(HeapFile, SortStats)>;

    /// The test key: the record's leading `u32`, under a coarse prefix
    /// (`k / 8`), so prefixes decide some comparisons and `cmp` the rest.
    fn key(rec: &[u8]) -> Result<(Prefix, u32)> {
        let k = u32::from_le_bytes(rec[..4].try_into().unwrap());
        Ok(([u64::from(k / 8), 0], k))
    }

    fn by_key(a: &u32, b: &u32) -> Ordering {
        a.cmp(b)
    }

    fn load_numbers(disk: &SimDisk, nums: &[u32]) -> HeapFile {
        let f = HeapFile::create(disk);
        f.load(nums.iter().map(|n| n.to_le_bytes())).unwrap();
        f
    }

    fn read_records(f: &HeapFile) -> Vec<Vec<u8>> {
        let mut scan = f.scan();
        let mut out = Vec::new();
        while let Some(rec) = scan.next_record() {
            out.push(rec.unwrap().to_vec());
        }
        out
    }

    fn read_all(f: &HeapFile) -> Vec<u32> {
        read_records(f).iter().map(|r| key(r).unwrap().1).collect()
    }

    #[test]
    fn estimated_initial_runs_follow_the_arena_rule() {
        let disk = SimDisk::new(128);
        for n in [0u32, 1, 63, 64, 65, 200, 513] {
            let f = load_numbers(&disk, &(0..n).rev().collect::<Vec<_>>());
            let (_, stats) = external_sort(&disk, &f, 2, key, by_key).unwrap();
            let bytes = 4 * f.num_records();
            let estimate = estimated_initial_runs(f.num_records(), bytes, 2, disk.page_size());
            assert_eq!(estimate, stats.initial_runs as u64, "n={n}");
        }
    }

    /// The sort as it was before keyed extraction: a comparator over raw
    /// record bytes that decodes both records on every comparison. Kept only
    /// as the reference the keyed sort must reproduce bit for bit.
    mod reference {
        use super::super::*;

        /// A stream of owned records: the reference reads a heap file
        /// through the lending cursor, copying each record, or takes records
        /// that are already owned.
        pub(super) trait OwnedRecords {
            fn next_owned(&mut self) -> Option<Result<Vec<u8>>>;
        }

        impl OwnedRecords for RecordScan<'_> {
            fn next_owned(&mut self) -> Option<Result<Vec<u8>>> {
                self.next_record().map(|r| r.map(<[u8]>::to_vec))
            }
        }

        impl<I: Iterator<Item = Result<Vec<u8>>>> OwnedRecords for I {
            fn next_owned(&mut self) -> Option<Result<Vec<u8>>> {
                self.next()
            }
        }

        pub(super) fn sort_stream<I, F>(
            disk: &SimDisk,
            mut records: I,
            memory_pages: usize,
            mut cmp: F,
        ) -> Result<(HeapFile, SortStats)>
        where
            I: OwnedRecords,
            F: FnMut(&[u8], &[u8]) -> Ordering,
        {
            let memory_pages = memory_pages.max(2);
            let budget_bytes = memory_pages * disk.page_size();
            let mut comparisons: u64 = 0;
            let mut runs: Vec<HeapFile> = Vec::new();
            let mut batch: Vec<Vec<u8>> = Vec::new();
            let mut batch_bytes = 0usize;
            let mut flush = |batch: &mut Vec<Vec<u8>>, comparisons: &mut u64| -> Result<HeapFile> {
                batch.sort_by(|a, b| {
                    *comparisons += 1;
                    cmp(a, b)
                });
                let run = HeapFile::create(disk);
                run.load(batch.iter())?;
                batch.clear();
                Ok(run)
            };
            while let Some(rec) = records.next_owned() {
                let rec = rec?;
                batch_bytes += rec.len();
                batch.push(rec);
                if batch_bytes >= budget_bytes {
                    runs.push(flush(&mut batch, &mut comparisons)?);
                    batch_bytes = 0;
                }
            }
            if !batch.is_empty() {
                runs.push(flush(&mut batch, &mut comparisons)?);
            }
            let initial_runs = runs.len();
            let stats = |initial_runs, merge_passes, comparisons| SortStats {
                initial_runs,
                merge_passes,
                comparisons,
                gen_time: Duration::ZERO,
                merge_time: Duration::ZERO,
            };
            if runs.is_empty() {
                return Ok((HeapFile::create(disk), stats(0, 0, comparisons)));
            }
            let fan_in = (memory_pages - 1).max(2);
            let mut merge_passes = 0usize;
            while runs.len() > 1 {
                merge_passes += 1;
                let mut next: Vec<HeapFile> = Vec::new();
                for group in runs.chunks(fan_in) {
                    next.push(merge_group(disk, group, &mut cmp, &mut comparisons)?);
                }
                runs = next;
            }
            let sorted = runs.pop().unwrap();
            Ok((sorted, stats(initial_runs, merge_passes, comparisons)))
        }

        fn merge_group<F>(
            disk: &SimDisk,
            group: &[HeapFile],
            cmp: &mut F,
            comparisons: &mut u64,
        ) -> Result<HeapFile>
        where
            F: FnMut(&[u8], &[u8]) -> Ordering,
        {
            if group.len() == 1 {
                return Ok(group[0].clone());
            }
            let mut cursors: Vec<RecordScan<'_>> = group.iter().map(HeapFile::scan).collect();
            let mut heads: Vec<Option<Vec<u8>>> = Vec::with_capacity(cursors.len());
            for cur in &mut cursors {
                heads.push(cur.next_owned().transpose()?);
            }
            let out = HeapFile::create(disk);
            let mut w = out.bulk_writer();
            loop {
                let mut min_idx: Option<usize> = None;
                for (i, head) in heads.iter().enumerate() {
                    let Some(h) = head else { continue };
                    match min_idx {
                        None => min_idx = Some(i),
                        Some(m) => {
                            *comparisons += 1;
                            if cmp(h, heads[m].as_deref().unwrap()) == Ordering::Less {
                                min_idx = Some(i);
                            }
                        }
                    }
                }
                let Some(i) = min_idx else { break };
                w.append(&heads[i].take().unwrap())?;
                heads[i] = cursors[i].next_owned().transpose()?;
            }
            w.finish()?;
            Ok(out)
        }
    }

    /// The reference's comparator: decodes both keys on every call.
    fn by_bytes(a: &[u8], b: &[u8]) -> Ordering {
        by_key(&key(a).unwrap().1, &key(b).unwrap().1)
    }

    /// Variable-length records with heavily duplicated keys: the payload
    /// after the key is unique, so any difference in how ties land (run
    /// contents, merge picks) shows in the output bytes.
    fn tie_heavy_records(n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut rec = ((i * 7919) % 97).to_le_bytes().to_vec();
                rec.extend_from_slice(&i.to_le_bytes());
                rec.resize(rec.len() + (i % 13) as usize, 0xAB);
                rec
            })
            .collect()
    }

    #[test]
    fn keyed_sort_is_bit_identical_to_byte_comparator_reference() {
        // (records, memory pages, expected merge passes): one run, one merge
        // pass (memory above the square root of the file), and many passes.
        for (n, mem, passes) in [(300, 64, 0..=0), (2000, 16, 1..=1), (2000, 2, 2..=usize::MAX)] {
            let records = tie_heavy_records(n);

            // Table-fed: reference vs serial and parallel keyed sorts.
            let run_table = |sort: &dyn Fn(&SimDisk, &HeapFile) -> Sorted| {
                let disk = SimDisk::new(128);
                let f = HeapFile::create(&disk);
                f.load(records.iter()).unwrap();
                disk.reset_io();
                let (sorted, stats) = sort(&disk, &f).unwrap();
                let io = disk.io();
                (read_records(&sorted), stats, io)
            };
            let want = run_table(&|disk, f| reference::sort_stream(disk, f.scan(), mem, by_bytes));
            assert!(passes.contains(&want.1.merge_passes), "case n={n} mem={mem}: {:?}", want.1);
            let mut sorted_keys: Vec<u32> = want.0.iter().map(|r| key(r).unwrap().1).collect();
            let before = sorted_keys.clone();
            sorted_keys.sort();
            assert_eq!(before, sorted_keys, "reference output is sorted");

            let got = run_table(&|disk, f| external_sort(disk, f, mem, key, by_key));
            assert_eq!(got, want, "serial keyed sort diverges: n={n} mem={mem}");
            for threads in [2usize, 4] {
                let got = run_table(&|disk, f| {
                    external_sort_parallel(disk, f, mem, threads, key, by_key)
                });
                assert_eq!(got, want, "parallel keyed sort diverges: n={n} threads={threads}");
            }

            // Record-fed: reference vs keyed, both fed the same stream.
            let run_records = |sort: &dyn Fn(&SimDisk) -> Sorted| {
                let disk = SimDisk::new(128);
                let (sorted, stats) = sort(&disk).unwrap();
                let io = disk.io();
                (read_records(&sorted), stats, io)
            };
            let want_rec = run_records(&|disk| {
                reference::sort_stream(disk, records.iter().cloned().map(Ok), mem, by_bytes)
            });
            let got_rec = run_records(&|disk| {
                external_sort_records(disk, records.iter().cloned(), mem, key, by_key)
            });
            assert_eq!(got_rec, want_rec, "record-fed keyed sort diverges: n={n} mem={mem}");
            assert_eq!((&got_rec.0, got_rec.1), (&want.0, want.1), "same output as table-fed");
        }
    }

    /// A fuzzy number `(a, b, c, d)` and a unique id, encoded as its four
    /// breakpoints, the id and `id % 13` padding bytes.
    fn trapezoid_record(id: u32, [a, b, c, d]: [f64; 4]) -> Vec<u8> {
        let mut rec: Vec<u8> = [a, b, c, d].iter().flat_map(|x| x.to_le_bytes()).collect();
        rec.extend_from_slice(&id.to_le_bytes());
        rec.resize(rec.len() + (id % 13) as usize, 0xCD);
        rec
    }

    fn trapezoid_value(rec: &[u8]) -> fuzzy_core::Value {
        let x = |i: usize| f64::from_le_bytes(rec[8 * i..8 * i + 8].try_into().unwrap());
        let t = fuzzy_core::Trapezoid::new(x(0), x(1), x(2), x(3)).unwrap();
        fuzzy_core::Value::fuzzy(t)
    }

    /// Fuzzy numbers whose α-cut endpoints tie in crowds: each has left and
    /// right midpoints from a few values and a spread from a few more, so at
    /// α = 0 many share the support `[a, d]` and at α = 0.5 many share the
    /// cut `[(a + b) / 2, (c + d) / 2]`, while their breakpoints differ.
    /// Prefixes then tie often and the full key breaks the tie.
    fn tie_heavy_trapezoids(n: u32) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_mul(2654435761);
                let pick = |shift: u32, k: u32| f64::from((h >> shift) % k);
                let (left, spread_l) = (pick(0, 3), pick(4, 3) * 0.5);
                let (right, spread_r) = (left + 4.0 + pick(8, 2), pick(12, 2) * 0.5);
                let t = [left - spread_l, left + spread_l, right - spread_r, right + spread_r];
                trapezoid_record(i, t)
            })
            .collect()
    }

    #[test]
    fn prefixed_order_key_sort_matches_the_reference_on_ties() {
        use fuzzy_core::interval_order::{cmp_values_at, OrderKey};
        use fuzzy_core::Degree;
        let records = tie_heavy_trapezoids(600);
        for alpha in [Degree::ZERO, Degree::new(0.5).unwrap()] {
            let order_key = |rec: &[u8]| {
                let k = OrderKey::at(&trapezoid_value(rec), alpha);
                Ok((k.prefix(), k))
            };
            let by_value =
                |a: &[u8], b: &[u8]| cmp_values_at(&trapezoid_value(a), &trapezoid_value(b), alpha);
            // Pairs whose prefixes tie but whose keys differ: the full
            // compare decides them.
            let keys: Vec<_> = records.iter().map(|r| order_key(r).unwrap()).collect();
            let broken_ties = (0..keys.len())
                .flat_map(|i| (i + 1..keys.len()).map(move |j| (i, j)))
                .filter(|&(i, j)| keys[i].0 == keys[j].0 && keys[i].1.cmp_key(&keys[j].1).is_ne())
                .count();
            assert!(broken_ties > 1000, "too few broken prefix ties: {broken_ties}");

            // (memory pages, merge passes): one merge pass, and many.
            for (mem, passes) in [(16, 1..=1), (2, 2..=usize::MAX)] {
                let run = |sort: &dyn Fn(&SimDisk, &HeapFile) -> Sorted| {
                    let disk = SimDisk::new(128);
                    let f = HeapFile::create(&disk);
                    f.load(records.iter()).unwrap();
                    disk.reset_io();
                    let (sorted, stats) = sort(&disk, &f).unwrap();
                    (read_records(&sorted), stats, disk.io())
                };
                let want = run(&|disk, f| reference::sort_stream(disk, f.scan(), mem, by_value));
                assert!(want.1.initial_runs > 1, "alpha={alpha:?} mem={mem}: {:?}", want.1);
                assert!(passes.contains(&want.1.merge_passes), "mem={mem}: {:?}", want.1);
                for threads in [1usize, 2] {
                    let got = run(&|disk, f| {
                        external_sort_parallel(disk, f, mem, threads, order_key, OrderKey::cmp_key)
                    });
                    assert_eq!(got, want, "alpha={alpha:?} mem={mem} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn panicking_sort_worker_is_a_typed_error() {
        let nums: Vec<u32> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let disk = SimDisk::new(128);
        let f = load_numbers(&disk, &nums);
        let is_panic =
            |r: Sorted, msg: &str| matches!(r, Err(StorageError::WorkerPanic(m)) if m == msg);

        // One record's key panics: its worker dies, the other finishes.
        let panics_on_13 = |rec: &[u8]| match key(rec)? {
            (_, 13) => panic!("key panicked on 13"),
            k => Ok(k),
        };
        let r = external_sort_parallel(&disk, &f, 2, 2, panics_on_13, by_key);
        assert!(is_panic(r, "key panicked on 13"));

        // Every key panics: once both workers are gone the producer's send
        // fails, and the sort still returns the workers' error.
        let always = |_: &[u8]| -> Result<(Prefix, u32)> { panic!("every key panics") };
        assert!(is_panic(
            external_sort_parallel(&disk, &f, 2, 2, always, by_key),
            "every key panics"
        ));

        // The same disk sorts correctly afterwards.
        let (sorted, _) = external_sort_parallel(&disk, &f, 2, 2, key, by_key).unwrap();
        let mut expect = nums.clone();
        expect.sort();
        assert_eq!(read_all(&sorted), expect);
    }

    #[test]
    fn corrupt_sort_key_is_a_typed_error_on_every_path() {
        // One record's key fails to decode: every entry point returns that
        // error instead of panicking, wherever the record falls.
        let nums: Vec<u32> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let strict = |rec: &[u8]| match key(rec)? {
            (_, 13) => Err(StorageError::Corrupt("undecodable sort key".into())),
            k => Ok(k),
        };
        let is_key_error =
            |r: Sorted| matches!(r, Err(StorageError::Corrupt(m)) if m == "undecodable sort key");
        for mem in [2usize, 64] {
            let disk = SimDisk::new(128);
            let f = load_numbers(&disk, &nums);
            assert!(is_key_error(external_sort(&disk, &f, mem, strict, by_key)), "serial");
            for threads in [2usize, 4] {
                let r = external_sort_parallel(&disk, &f, mem, threads, strict, by_key);
                assert!(is_key_error(r), "parallel, threads={threads}");
            }
            let records = nums.iter().map(|n| n.to_le_bytes().to_vec());
            assert!(is_key_error(external_sort_records(&disk, records, mem, strict, by_key)));
        }

        // A key that decodes on input but not when a merge pass re-reads
        // the record (a run page corrupted after it was written).
        let disk = SimDisk::new(128);
        let f = load_numbers(&disk, &nums);
        let reads = AtomicUsize::new(0);
        let fails_on_reread = |rec: &[u8]| {
            if reads.fetch_add(1, atomic::Ordering::Relaxed) >= nums.len() {
                return Err(StorageError::Corrupt("undecodable sort key".into()));
            }
            key(rec)
        };
        assert!(is_key_error(external_sort(&disk, &f, 2, fails_on_reread, by_key)), "merge");
    }

    #[test]
    fn key_is_extracted_once_per_record_read() {
        let nums: Vec<u32> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let n = nums.len();
        let calls = AtomicUsize::new(0);
        let counting = |rec: &[u8]| {
            calls.fetch_add(1, atomic::Ordering::Relaxed);
            key(rec)
        };
        let disk = SimDisk::new(128);
        let f = load_numbers(&disk, &nums);

        // One run: each record is keyed once, on input.
        let (_, stats) = external_sort(&disk, &f, 64, counting, by_key).unwrap();
        assert_eq!(stats.merge_passes, 0);
        assert_eq!(calls.swap(0, atomic::Ordering::Relaxed), n);

        // Many passes: once on input, then at most once per merge pass (a
        // run left alone in its merge group is carried over unread).
        let (sorted, stats) = external_sort(&disk, &f, 3, counting, by_key).unwrap();
        assert_eq!(read_all(&sorted).len(), n);
        assert!(stats.merge_passes >= 2, "{stats:?}");
        let got = calls.load(atomic::Ordering::Relaxed);
        assert!(got > n && got <= n * (1 + stats.merge_passes), "{got} key calls");
    }

    #[test]
    fn sorts_small_input_in_memory() {
        let disk = SimDisk::new(128);
        let f = load_numbers(&disk, &[5, 3, 9, 1, 4]);
        let (sorted, stats) = external_sort(&disk, &f, 8, key, by_key).unwrap();
        assert_eq!(read_all(&sorted), vec![1, 3, 4, 5, 9]);
        assert_eq!(stats.initial_runs, 1);
        assert_eq!(stats.merge_passes, 0);
    }

    #[test]
    fn sorts_multi_run_input() {
        let disk = SimDisk::new(128);
        // 128-byte pages, 4-byte records: ~15 records/page. With a 2-page
        // budget (~256 bytes, 64 records), 1000 records need many runs.
        let nums: Vec<u32> = (0..1000).map(|i| (i * 7919) % 1000).collect();
        let f = load_numbers(&disk, &nums);
        let (sorted, stats) = external_sort(&disk, &f, 2, key, by_key).unwrap();
        let mut expect = nums.clone();
        expect.sort();
        assert_eq!(read_all(&sorted), expect);
        assert!(stats.initial_runs > 1, "expected spilling, got {stats:?}");
        assert!(stats.merge_passes >= 1);
    }

    #[test]
    fn two_pass_behavior_with_sqrt_memory() {
        let disk = SimDisk::new(128);
        let nums: Vec<u32> = (0..2000).rev().collect();
        let f = load_numbers(&disk, &nums);
        // Budget comfortably above sqrt of file size: a single merge pass.
        let (sorted, stats) = external_sort(&disk, &f, 16, key, by_key).unwrap();
        assert_eq!(read_all(&sorted)[..5], [0, 1, 2, 3, 4]);
        assert_eq!(stats.merge_passes, 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let disk = SimDisk::new(128);
        let empty = HeapFile::create(&disk);
        let (sorted, stats) = external_sort(&disk, &empty, 4, key, by_key).unwrap();
        assert_eq!(sorted.num_records(), 0);
        assert_eq!(stats.initial_runs, 0);

        let single = load_numbers(&disk, &[42]);
        let (sorted, _) = external_sort(&disk, &single, 4, key, by_key).unwrap();
        assert_eq!(read_all(&sorted), vec![42]);
    }

    #[test]
    fn duplicate_keys_survive() {
        let disk = SimDisk::new(128);
        let f = load_numbers(&disk, &[3, 1, 3, 1, 3]);
        let (sorted, _) = external_sort(&disk, &f, 2, key, by_key).unwrap();
        assert_eq!(read_all(&sorted), vec![1, 1, 3, 3, 3]);
    }

    #[test]
    fn parallel_sort_matches_serial_exactly() {
        // Same records on two disks: the parallel sort must reproduce the
        // serial result, stats, AND physical I/O counters bit-for-bit.
        let nums: Vec<u32> = (0..2000).map(|i| (i * 6007) % 2311).collect();
        let serial_disk = SimDisk::new(128);
        let f = load_numbers(&serial_disk, &nums);
        serial_disk.reset_io();
        let (serial_sorted, serial_stats) =
            external_sort(&serial_disk, &f, 4, key, by_key).unwrap();
        let serial_io = serial_disk.io();
        let serial_out = read_all(&serial_sorted);

        for threads in [1usize, 2, 4, 8] {
            let disk = SimDisk::new(128);
            let f = load_numbers(&disk, &nums);
            disk.reset_io();
            let mine = crate::thread_io();
            let (sorted, stats) =
                external_sort_parallel(&disk, &f, 4, threads, key, by_key).unwrap();
            let io = disk.io();
            assert_eq!(stats, serial_stats, "stats diverge at threads={threads}");
            assert_eq!(io, serial_io, "I/O counters diverge at threads={threads}");
            // The workers' transfers are credited to the calling thread.
            assert_eq!(crate::thread_io().since(&mine), io, "tally at threads={threads}");
            assert_eq!(read_all(&sorted), serial_out, "output diverges at threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_handles_empty_and_tiny_inputs() {
        let disk = SimDisk::new(128);
        let empty = HeapFile::create(&disk);
        let (sorted, stats) = external_sort_parallel(&disk, &empty, 4, 4, key, by_key).unwrap();
        assert_eq!(sorted.num_records(), 0);
        assert_eq!(stats.initial_runs, 0);

        let single = load_numbers(&disk, &[9, 4]);
        let (sorted, _) = external_sort_parallel(&disk, &single, 4, 8, key, by_key).unwrap();
        assert_eq!(read_all(&sorted), vec![4, 9]);
    }

    /// Workers start only for batches: an input that fits one batch is
    /// keyed on the calling thread alone, and a spilling one keys its
    /// batches off it.
    #[test]
    fn parallel_sort_starts_workers_only_for_batches() {
        let disk = SimDisk::new(128);
        let keyed_on = Mutex::new(Vec::new());
        let key = |rec: &[u8]| {
            keyed_on.lock().unwrap().push(std::thread::current().id());
            key(rec)
        };
        let me = std::thread::current().id();
        // 400 record bytes, within the 512-byte budget, on more pages than
        // the budget's four: the producer finds out it is one batch.
        let fits = load_numbers(&disk, &(0..100).rev().collect::<Vec<_>>());
        assert!(fits.num_pages() > 4);
        let (sorted, stats) = external_sort_parallel(&disk, &fits, 4, 8, key, by_key).unwrap();
        assert_eq!(stats.initial_runs, 1);
        assert_eq!(read_all(&sorted), (0..100).collect::<Vec<_>>());
        assert!(keyed_on.lock().unwrap().iter().all(|t| *t == me), "one batch, no worker");
        keyed_on.lock().unwrap().clear();
        let spills = load_numbers(&disk, &(0..400).rev().collect::<Vec<_>>());
        let (_, stats) = external_sort_parallel(&disk, &spills, 4, 8, key, by_key).unwrap();
        assert!(stats.initial_runs > 1);
        assert!(keyed_on.lock().unwrap().iter().any(|t| *t != me), "batches go to workers");
    }

    #[test]
    fn record_fed_sort_matches_table_fed_sort_minus_the_scan() {
        // Feeding records straight into run generation must produce the same
        // sorted output, the same stats, and the same I/O minus exactly the
        // input materialization (writes) and re-scan (reads).
        let nums: Vec<u32> = (0..1200).map(|i| (i * 4099) % 977).collect();
        let table_disk = SimDisk::new(128);
        let f = load_numbers(&table_disk, &nums);
        let input_pages = f.num_pages();
        table_disk.reset_io();
        let (table_sorted, table_stats) = external_sort(&table_disk, &f, 3, key, by_key).unwrap();
        let table_io = table_disk.io();

        let rec_disk = SimDisk::new(128);
        rec_disk.reset_io();
        let records: Vec<Vec<u8>> = nums.iter().map(|n| n.to_le_bytes().to_vec()).collect();
        let (rec_sorted, rec_stats) =
            external_sort_records(&rec_disk, records, 3, key, by_key).unwrap();
        let rec_io = rec_disk.io();

        assert_eq!(rec_stats, table_stats, "same batches, same runs, same comparisons");
        assert_eq!(read_all(&rec_sorted), read_all(&table_sorted));
        assert_eq!(rec_io.reads, table_io.reads - input_pages, "saves the input re-scan");
        assert_eq!(rec_io.writes, table_io.writes, "spill writes are identical");
    }

    #[test]
    fn io_is_linear_in_passes() {
        let disk = SimDisk::new(128);
        let nums: Vec<u32> = (0..1500).rev().collect();
        let f = load_numbers(&disk, &nums);
        let input_pages = f.num_pages();
        disk.reset_io();
        let (_, stats) = external_sort(&disk, &f, 16, key, by_key).unwrap();
        let io = disk.io();
        // Each pass reads and writes roughly the whole file.
        let passes = 1 + stats.merge_passes as u64;
        assert!(io.reads >= input_pages * passes);
        assert!(io.reads <= input_pages * (passes + 1) + 4);
        assert!(io.writes >= input_pages * passes);
    }
}
