(** The speedtest1 workload (paper §6.1.2, Table 12): the 33 numbered
    tests, run against {!Mini_sqlite} on an Ext2 mount over virtio-blk.

    [size] scales the row counts the way speedtest1's --size does (the
    paper uses 1000; the simulator default is much smaller, so absolute
    seconds are not comparable to the paper — the per-test Linux/Asterinas
    ratios are). Results are (test number, name, virtual seconds). *)

type result = { num : int; name : string; seconds : float }

val run : ?size:int -> Libc.t -> result list
(** Execute all tests in order on a fresh database at /ext2/speedtest.db. *)
