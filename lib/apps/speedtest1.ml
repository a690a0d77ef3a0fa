module Sq = Mini_sqlite

type result = { num : int; name : string; seconds : float }

let test_names =
  [
    (100, "INSERTs into table with no index");
    (110, "ordered INSERTS with one index/PK");
    (120, "unordered INSERTS with one index/PK");
    (130, "25 SELECTS, numeric BETWEEN, unindexed");
    (140, "10 SELECTS, LIKE, unindexed");
    (142, "10 SELECTS w/ORDER BY, unindexed");
    (145, "10 SELECTS w/ORDER BY and LIMIT, unindexed");
    (150, "CREATE INDEX five times");
    (160, "SELECTS, numeric BETWEEN, indexed");
    (161, "SELECTS, numeric BETWEEN, PK");
    (170, "SELECTS, text BETWEEN, indexed");
    (180, "INSERTS with three indexes");
    (190, "DELETE and REFILL one table");
    (200, "VACUUM");
    (210, "ALTER TABLE ADD COLUMN, and query");
    (230, "UPDATES, numeric BETWEEN, indexed");
    (240, "UPDATES of individual rows");
    (250, "One big UPDATE of the whole table");
    (260, "Query added column after filling");
    (270, "DELETEs, numeric BETWEEN, indexed");
    (280, "DELETEs of individual rows");
    (290, "Refill two tables using REPLACE");
    (300, "Refill a table using (b&1)==(a&1)");
    (310, "four-ways joins");
    (320, "subquery in result set");
    (400, "REPLACE ops on an IPK");
    (410, "SELECTS on an IPK");
    (500, "REPLACE on TEXT PK");
    (510, "SELECTS on a TEXT PK");
    (520, "SELECT DISTINCT");
    (980, "PRAGMA integrity_check");
    (990, "ANALYZE");
  ]

let row_text i = Printf.sprintf "row-%08d payload text for speedtest one %d" i (i * 7)

let run ?(size = 20) c =
  let n = size * 25 in
  (* speedtest1 --size 1000 runs 500000 in the big tests: scale = size*500;
     we use size*25 to keep simulation time sane. *)
  let n14 = n * 14 / 10 in
  let rng = Sim.Rng.create 424242L in
  let db = Sq.open_db c "/ext2/speedtest.db" in
  let results = ref [] in
  let timed num f =
    let name = List.assoc num test_names in
    let t0 = Sim.Time.now () in
    f ();
    let seconds = Sim.Time.to_seconds (Sim.Time.now () - t0) in
    results := { num; name; seconds } :: !results
  in
  let txn f =
    Sq.begin_txn db;
    f ();
    Sq.commit db
  in
  List.iter (fun f -> f ())
    [
      (fun () ->
        Sq.create_table db "t1";
        Sq.create_table db "t2";
        Sq.create_table db "t3");
      (fun () ->
        timed 100 (fun () ->
            txn (fun () ->
                for i = 1 to n do
                  Sq.insert db ~table:"t1" (Sq.K_int i) (row_text i)
                done)));
      (fun () ->
        timed 110 (fun () ->
            txn (fun () ->
                for i = 1 to n do
                  Sq.insert db ~table:"t2" (Sq.K_int i) (row_text i)
                done)));
      (fun () ->
        timed 120 (fun () ->
            txn (fun () ->
                for _ = 1 to n do
                  let k = Sim.Rng.int rng (10 * n) in
                  Sq.insert db ~table:"t3" (Sq.K_int k) (row_text k)
                done)));
      (fun () ->
        timed 130 (fun () ->
            for q = 1 to 25 do
              let lo = q * 17 mod n in
              ignore
                (Sq.full_scan db ~table:"t1" ~f:(fun k _ ->
                     match k with
                     | Sq.K_int i -> if i >= lo && i <= lo + 100 then ()
                     | Sq.K_text _ -> ()))
            done));
      (fun () ->
        timed 140 (fun () ->
            for _ = 1 to 10 do
              ignore
                (Sq.full_scan db ~table:"t1" ~f:(fun _ v ->
                     ignore (String.length v > 10 && String.sub v 0 4 = "row-")))
            done));
      (fun () ->
        timed 142 (fun () ->
            for _ = 1 to 10 do
              let acc = ref [] in
              ignore (Sq.full_scan db ~table:"t1" ~f:(fun _ v -> acc := v :: !acc));
              ignore (List.sort compare !acc);
              Sim.Clock.charge (List.length !acc * 40)
            done));
      (fun () ->
        timed 145 (fun () ->
            for _ = 1 to 10 do
              let acc = ref [] in
              ignore (Sq.full_scan db ~table:"t1" ~f:(fun _ v -> acc := v :: !acc));
              ignore (List.filteri (fun i _ -> i < 10) (List.sort compare !acc));
              Sim.Clock.charge (List.length !acc * 40)
            done));
      (fun () ->
        timed 150 (fun () ->
            txn (fun () ->
                for i = 1 to 5 do
                  Sq.create_index db ~table:(if i mod 2 = 0 then "t1" else "t2")
                    ~name:(Printf.sprintf "idx%d" i)
                done)));
      (fun () ->
        timed 160 (fun () ->
            for q = 1 to n / 5 do
              let lo = q * 13 mod n in
              ignore (Sq.range_count db ~table:"t1" ~lo:(Sq.K_int lo) ~hi:(Sq.K_int (lo + 10)))
            done));
      (fun () ->
        timed 161 (fun () ->
            for q = 1 to n / 5 do
              let lo = q * 29 mod n in
              ignore (Sq.range_count db ~table:"t2" ~lo:(Sq.K_int lo) ~hi:(Sq.K_int (lo + 10)))
            done));
      (fun () ->
        timed 170 (fun () ->
            for q = 1 to n / 5 do
              let s = Printf.sprintf "row-%08d" (q * 11 mod n) in
              ignore
                (Sq.range_count db ~table:"t1" ~lo:(Sq.K_text s) ~hi:(Sq.K_text (s ^ "~")))
            done));
      (fun () ->
        timed 180 (fun () ->
            txn (fun () ->
                for i = n + 1 to n + (n / 2) do
                  Sq.insert db ~table:"t2" (Sq.K_int i) (row_text i)
                done)));
      (fun () ->
        timed 190 (fun () ->
            txn (fun () ->
                ignore (Sq.delete_range db ~table:"t3" ~lo:(Sq.K_int 0) ~hi:(Sq.K_int max_int));
                for i = 1 to n do
                  Sq.insert db ~table:"t3" (Sq.K_int i) (row_text i)
                done)));
      (fun () -> timed 200 (fun () -> Sq.vacuum db));
      (fun () ->
        timed 210 (fun () ->
            (* ALTER ADD COLUMN: metadata-only + one scan query. *)
            txn (fun () -> Sim.Clock.charge 30000);
            ignore (Sq.full_scan db ~table:"t1" ~f:(fun _ _ -> ()))));
      (fun () ->
        timed 230 (fun () ->
            txn (fun () ->
                for q = 1 to n / 25 do
                  let lo = q * 7 mod n in
                  ignore
                    (Sq.update_range db ~table:"t1" ~lo:(Sq.K_int lo) ~hi:(Sq.K_int (lo + 20))
                       ~f:(fun v -> v ^ "u"))
                done)));
      (fun () ->
        timed 240 (fun () ->
            txn (fun () ->
                for i = 1 to n do
                  ignore
                    (Sq.update_range db ~table:"t2" ~lo:(Sq.K_int i) ~hi:(Sq.K_int i)
                       ~f:(fun v -> v ^ "x"))
                done)));
      (fun () ->
        timed 250 (fun () ->
            txn (fun () ->
                ignore
                  (Sq.update_range db ~table:"t1" ~lo:(Sq.K_int 0) ~hi:(Sq.K_int max_int)
                     ~f:(fun v -> v ^ "!")))));
      (fun () -> timed 260 (fun () -> ignore (Sq.full_scan db ~table:"t1" ~f:(fun _ _ -> ()))));
      (fun () ->
        timed 270 (fun () ->
            txn (fun () ->
                for q = 1 to n / 25 do
                  let lo = q * 3 mod n in
                  ignore
                    (Sq.delete_range db ~table:"t1" ~lo:(Sq.K_int lo) ~hi:(Sq.K_int (lo + 5)))
                done)));
      (fun () ->
        timed 280 (fun () ->
            txn (fun () ->
                for i = 1 to n do
                  ignore (Sq.delete_key db ~table:"t3" (Sq.K_int i))
                done)));
      (fun () ->
        timed 290 (fun () ->
            txn (fun () ->
                for i = 1 to n do
                  Sq.replace db ~table:"t3" (Sq.K_int i) (row_text i);
                  Sq.replace db ~table:"t1" (Sq.K_int i) (row_text i)
                done)));
      (fun () ->
        timed 300 (fun () ->
            txn (fun () ->
                ignore
                  (Sq.full_scan db ~table:"t2" ~f:(fun k v ->
                       match k with
                       | Sq.K_int i when i land 1 = 0 ->
                         Sq.replace db ~table:"t3" (Sq.K_int i) v
                       | _ -> ())))));
      (fun () ->
        timed 310 (fun () ->
            (* Four-way join: nested scans with per-row lookups. *)
            for _ = 1 to 4 do
              ignore
                (Sq.full_scan db ~table:"t1" ~f:(fun k _ ->
                     ignore (Sq.lookup db ~table:"t2" k)))
            done));
      (fun () ->
        timed 320 (fun () ->
            ignore
              (Sq.full_scan db ~table:"t2" ~f:(fun k _ ->
                   ignore (Sq.lookup db ~table:"t1" k);
                   Sim.Clock.charge 120))));
      (fun () ->
        timed 400 (fun () ->
            txn (fun () ->
                for i = 1 to n14 do
                  Sq.replace db ~table:"t1" (Sq.K_int (i mod n)) (row_text i)
                done)));
      (fun () ->
        timed 410 (fun () ->
            for i = 1 to n14 do
              ignore (Sq.lookup db ~table:"t1" (Sq.K_int (i mod n)))
            done));
      (fun () ->
        timed 500 (fun () ->
            Sq.create_table db "tt";
            txn (fun () ->
                for i = 1 to n14 do
                  Sq.replace db ~table:"tt"
                    (Sq.K_text (Printf.sprintf "key-%08d" (i mod n)))
                    (row_text i)
                done)));
      (fun () ->
        timed 510 (fun () ->
            for i = 1 to n14 do
              ignore
                (Sq.lookup db ~table:"tt" (Sq.K_text (Printf.sprintf "key-%08d" (i mod n))))
            done));
      (fun () ->
        timed 520 (fun () ->
            let seen = Hashtbl.create 256 in
            ignore
              (Sq.full_scan db ~table:"t1" ~f:(fun _ v ->
                   Hashtbl.replace seen v ();
                   Sim.Clock.charge 60))));
      (fun () -> timed 980 (fun () -> ignore (Sq.integrity_check db)));
      (fun () -> timed 990 (fun () -> Sq.analyze db));
    ];
  Sq.close_db db;
  List.rev !results
