(* kspan: causal request-span tracing with critical-path analysis.

   A span is one request. Its id is allocated at the request boundary
   (syscall entry in auto mode; an explicit annotation in mini_redis /
   mini_nginx) and rides every asynchronous carrier the request
   touches: bios keep it across adjacent-run merges, batch splits and
   per-bio retries; TX frames keep it across plug bursts and mid-burst
   failures; the IRQ → softirq → wakeup edge hands it back to the
   sleeping task. While live, a span accumulates typed time segments;
   when it ends, overlaps are resolved by a fixed priority order into
   a critical-path decomposition that sums exactly to the span's wall
   time.

   Segment sources:
   - [cpu.<scope>]   every clock advance while the owning task is on
                     CPU, labelled with the innermost kprof scope
                     (the scope stack is maintained even when kprof
                     attribution is off);
   - [blocked]       descheduled -> woken, the low-priority catch-all;
   - [sched.delay]   woken/runnable -> dispatched;
   - [irq<v>]/[softirq]  kprof scope entry -> wakeup, recorded on the
                     woken span (the delivery leg of a completion);
   - [blk.queue/service/irq], [net.plug/service/irq]  carrier
                     timestamps stamped by the block layer, netstack
                     and virtio drivers (device-side completion time
                     comes from a timestamp the device model writes
                     into the descriptor);
   - [jbd.commit]    the commit+FUA barrier inside fsync.

   Like ktrace/kprof/kprobe, the plane is free in virtual time: it
   never charges cycles and never consumes randomness, so a span-on
   same-seed run is byte-identical to a span-off one. *)

(* A segment's times are native-int cycles, and its priority is
   computed once, when the segment is recorded. *)
type seg = { slabel : string; prio : int; mutable s_t0 : int; mutable s_t1 : int }

type t = {
  id : int;
  cls : string;
  name : string;
  tid : int;
  t_begin : int;
  mutable t_end : int; (* 0 while live *)
  mutable segs : seg list; (* newest first *)
  mutable nsegs : int;
  mutable truncated : int;
  mutable last_off : int; (* when the owning task last left the CPU *)
  mutable path : (string * int) list; (* filled at end: descending *)
  mutable residual : int;
}

(* Segment cap per span: beyond it, new segments are dropped and
   counted, so a pathological span cannot hold the heap hostage. The
   dropped time still shows up — as residual — rather than silently
   inflating a named segment. *)
let max_segs = 512

let reservoir_cap = 64

type agg = {
  mutable a_count : int;
  mutable a_total : int;
  a_hist : Hist.t; (* wall time, µs *)
  a_segs : (string, int ref) Hashtbl.t; (* critical-path totals *)
  mutable a_residual : int;
  mutable a_res : t list; (* slowest-N reservoir, ascending duration *)
  mutable a_nres : int; (* its length *)
}

let enabled_flag = ref false

let auto_flag = ref false

let next_id = ref 0

let finished = ref 0

let live : (int, t) Hashtbl.t = Hashtbl.create 64

let active : (int, t) Hashtbl.t = Hashtbl.create 16 (* tid -> live span *)

let class_tbl : (string, agg) Hashtbl.t = Hashtbl.create 16

(* The span active on kprof's current context, memoized: the clock
   observer asks on every advance. Any change to [active] forgets it. *)
let cached_tid = ref (-1)

let cached : t option ref = ref None

let forget_active () = cached_tid := -1

let active_span () =
  let tid = Prof.current_tid () in
  if tid <> !cached_tid then begin
    cached_tid := tid;
    cached := if tid = 0 then None else Hashtbl.find_opt active tid
  end;
  !cached

let enabled () = !enabled_flag

let enable () = enabled_flag := true

let disable () = enabled_flag := false

let auto () = !auto_flag

let set_auto b = auto_flag := b

let clear () =
  next_id := 0;
  finished := 0;
  Hashtbl.reset live;
  Hashtbl.reset active;
  forget_active ();
  Hashtbl.reset class_tbl

let live_count () = Hashtbl.length live

let finished_count () = !finished

(* --- Segments --- *)

(* Critical-path priority: the most specific explanation of an instant
   wins. *)
let prio label =
  if label = "blocked" then 10
  else if String.starts_with ~prefix:"cpu." label then 100
  else if label = "sched.delay" then 90
  else if label = "softirq" then 85
  else if String.starts_with ~prefix:"irq" label then 80
  else if label = "blk.irq" || label = "net.irq" then 75
  else if label = "blk.service" || label = "net.service" then 70
  else if label = "jbd.commit" then 65
  else if label = "blk.queue" || label = "net.plug" then 60
  else 50

(* How many of the newest segments to scan for a same-label merge.
   Batch completions record one near-identical leg per bio or frame of
   the batch (32x blk.queue sharing a q_end, 32x blk.service, ...), in
   one consecutive run; without merging a single large fsync exhausts
   [max_segs] and its tail — the part that explains the latency — is
   lost to truncation. A small window keeps insertion O(1). *)
let merge_window = 8

(* Coalesce into a recent same-label segment when the intervals touch
   or overlap: the union is a single interval, so the critical-path
   sweep sees exactly the same coverage. *)
let rec coalesce label t0 t1 k = function
  | [] -> false
  | s :: tl ->
    k < merge_window
    &&
    if String.equal s.slabel label && s.s_t0 <= t1 && t0 <= s.s_t1 then begin
      if t0 < s.s_t0 then s.s_t0 <- t0;
      if t1 > s.s_t1 then s.s_t1 <- t1;
      true
    end
    else coalesce label t0 t1 (k + 1) tl

let add_seg sp label t0 t1 =
  if t1 > t0 && sp.t_end = 0 && not (coalesce label t0 t1 0 sp.segs) then begin
    if sp.nsegs >= max_segs then sp.truncated <- sp.truncated + 1
    else begin
      sp.segs <- { slabel = label; prio = prio label; s_t0 = t0; s_t1 = t1 } :: sp.segs;
      sp.nsegs <- sp.nsegs + 1
    end
  end

let add_to id label t0 t1 =
  if id <> 0 && !enabled_flag then
    match Hashtbl.find_opt live id with
    | Some sp -> add_seg sp label t0 t1
    | None -> ()

let mark label t0 =
  if !enabled_flag then
    match active_span () with
    | Some sp -> add_seg sp label t0 (Time.now ())
    | None -> ()

(* The clock observer. It feeds kprof attribution first; then every
   advance while a task with an active span is on CPU becomes a
   [cpu.<scope>] segment labelled with the innermost kprof scope (the
   label is built once per scope stack: no allocation on the
   steady-state path). *)
let on_advance d =
  Prof.attribute d;
  if !enabled_flag then
    match active_span () with
    | Some sp ->
      let t = Time.now () in
      add_seg sp (Prof.cpu_label ()) (t - d) t
    | None -> ()

let () = Clock.set_on_advance on_advance

(* --- Critical path ---

   Overlapping segments are the normal case (a [blk.irq] completion
   leg overlaps the [softirq] leg, which overlaps the span's
   [blocked] catch-all). The decomposition resolves each instant to
   the most specific explanation by priority, so the parts sum to the
   wall time exactly and nothing is double-counted. Among equal
   priorities the oldest segment wins. *)

(* Add [w] cycles to [label]'s entry in [path]; [false] if it has none. *)
let rec add_won path label w =
  match path with
  | [] -> false
  | (l, r) :: tl -> String.equal l label && (r := !r + w; true) || add_won tl label w

(* Segments recorded back to back, each starting at or after the end of
   the one recorded before it, are pairwise disjoint: each wins exactly
   its interval clipped to the span, and priorities decide nothing. One
   pass over the list then gives the sweep's path and residual; [None]
   when some pair overlaps, ties included, and the sweep runs. *)
let back_to_back sp lo hi =
  let rec go path covered = function
    | s :: p :: _ when s.s_t0 < p.s_t1 -> None
    | [] -> Some (path, hi - lo - covered)
    | s :: tl ->
      let w = (if s.s_t1 < hi then s.s_t1 else hi) - if s.s_t0 > lo then s.s_t0 else lo in
      if w <= 0 then go path covered tl
      else if add_won path s.slabel w then go path (covered + w) tl
      else go ((s.slabel, ref w) :: path) (covered + w) tl
  in
  go [] 0 sp.segs

(* Segments newest first, as recorded, clipped to the span. One clipped
   to nothing adds no new bound and covers no interval. *)
let sweep sp lo hi =
  let segs = Array.of_list sp.segs in
  let n = Array.length segs in
  let clip t = if t < lo then lo else if t > hi then hi else t in
  let t0 = Array.map (fun s -> clip s.s_t0) segs and t1 = Array.map (fun s -> clip s.s_t1) segs in
  let bounds = Array.make ((2 * n) + 2) lo in
  bounds.(1) <- hi;
  for i = 0 to n - 1 do
    bounds.((2 * i) + 2) <- t0.(i);
    bounds.((2 * i) + 3) <- t1.(i)
  done;
  Array.sort Int.compare bounds;
  (* Cycles each segment wins, then summed per label. *)
  let won = Array.make n 0 in
  let residual = ref 0 in
  for k = 0 to Array.length bounds - 2 do
    let a = bounds.(k) and b = bounds.(k + 1) in
    if b > a then begin
      let best = ref (-1) in
      for i = n - 1 downto 0 do
        if t0.(i) <= a && t1.(i) >= b && (!best < 0 || segs.(i).prio > segs.(!best).prio) then
          best := i
      done;
      if !best >= 0 then won.(!best) <- won.(!best) + (b - a)
      else residual := !residual + (b - a)
    end
  done;
  let path = ref [] in
  Array.iteri
    (fun i s ->
      if won.(i) > 0 && not (add_won !path s.slabel won.(i)) then
        path := (s.slabel, ref won.(i)) :: !path)
    segs;
  (!path, !residual)

let compute_path sp =
  let lo = sp.t_begin and hi = sp.t_end in
  if hi <= lo then begin
    sp.path <- [];
    sp.residual <- 0
  end
  else begin
    let path, residual = match back_to_back sp lo hi with Some r -> r | None -> sweep sp lo hi in
    sp.path <-
      List.map (fun (l, r) -> (l, !r)) path
      |> List.sort (fun (la, a) (lb, b) ->
             let c = Int.compare b a in
             if c <> 0 then c else String.compare la lb);
    sp.residual <- residual
  end

(* --- Aggregation --- *)

let agg_of cls =
  match Hashtbl.find_opt class_tbl cls with
  | Some a -> a
  | None ->
    let a =
      {
        a_count = 0;
        a_total = 0;
        a_hist = Hist.create ();
        a_segs = Hashtbl.create 16;
        a_residual = 0;
        a_res = [];
        a_nres = 0;
      }
    in
    Hashtbl.add class_tbl cls a;
    a

let span_dur sp = sp.t_end - sp.t_begin

let res_insert a sp =
  let cmp x y = Int.compare (span_dur x) (span_dur y) in
  if a.a_nres < reservoir_cap then (a.a_res <- List.merge cmp a.a_res [ sp ]; a.a_nres <- a.a_nres + 1)
  else
    match a.a_res with
    | fastest :: rest when span_dur sp > span_dur fastest ->
      a.a_res <- List.merge cmp rest [ sp ]
    | _ -> ()

let finish sp =
  sp.t_end <- Time.now ();
  Hashtbl.remove live sp.id;
  (match Hashtbl.find_opt active sp.tid with
  | Some cur when cur == sp ->
    Hashtbl.remove active sp.tid;
    forget_active ()
  | _ -> ());
  compute_path sp;
  incr finished;
  let a = agg_of sp.cls in
  a.a_count <- a.a_count + 1;
  a.a_total <- a.a_total + span_dur sp;
  Hist.record_time a.a_hist (span_dur sp);
  List.iter
    (fun (l, d) ->
      match Hashtbl.find_opt a.a_segs l with
      | Some r -> r := !r + d
      | None -> Hashtbl.add a.a_segs l (ref d))
    sp.path;
  a.a_residual <- a.a_residual + sp.residual;
  res_insert a sp

(* --- Boundaries --- *)

let current () =
  if not !enabled_flag then 0
  else match active_span () with Some sp -> sp.id | None -> 0

let begin_ ~cls ~name =
  let tid = Prof.current_tid () in
  if (not !enabled_flag) || tid = 0 || Hashtbl.mem active tid then 0
  else begin
    incr next_id;
    let sp =
      {
        id = !next_id;
        cls;
        name;
        tid;
        t_begin = Time.now ();
        t_end = 0;
        segs = [];
        nsegs = 0;
        truncated = 0;
        last_off = 0;
        path = [];
        residual = 0;
      }
    in
    Hashtbl.replace live sp.id sp;
    Hashtbl.replace active sp.tid sp;
    forget_active ();
    sp.id
  end

let end_ id =
  if id <> 0 then
    match Hashtbl.find_opt live id with Some sp -> finish sp | None -> ()

let annotate_begin ~cls ~name = ignore (begin_ ~cls ~name)

let annotate_end () = match active_span () with Some sp -> finish sp | None -> ()

let sys_classes : (string, string) Hashtbl.t = Hashtbl.create 64

let sys_class name =
  match Hashtbl.find_opt sys_classes name with
  | Some c -> c
  | None ->
    let c = "sys." ^ name in
    Hashtbl.add sys_classes name c;
    c

let syscall_begin name =
  if !enabled_flag && !auto_flag then begin_ ~cls:(sys_class name) ~name else 0

let syscall_end id = end_ id

(* --- Scheduler and interrupt edges --- *)

let on_deschedule () =
  if !enabled_flag then
    match active_span () with
    | Some sp -> sp.last_off <- Time.now ()
    | None -> ()

let on_dispatch ~tid ~waited =
  if !enabled_flag then
    match Hashtbl.find_opt active tid with
    | Some sp ->
      let t = Time.now () in
      let runnable = t - waited in
      if sp.last_off > 0 then begin
        add_seg sp "blocked" sp.last_off runnable;
        sp.last_off <- 0
      end;
      add_seg sp "sched.delay" runnable t
    | None -> ()

(* The IRQ and softirq scopes the waker is inside are the delivery
   legs of the completion it signals: each is recorded on the woken
   task's span from the cycle its kprof frame was entered. *)
let is_wake_leg label = label = "softirq" || String.starts_with ~prefix:"irq" label

let on_wake ~tid =
  if !enabled_flag then
    match Hashtbl.find_opt active tid with
    | Some sp ->
      let t = Time.now () in
      Prof.iter_frames (fun label entered ->
          if is_wake_leg label then add_seg sp label entered t)
    | None -> ()

let on_task_exit tid =
  match Hashtbl.find_opt active tid with Some sp -> finish sp | None -> ()

(* --- Conservation counters --- *)

let count_bio_completed () = Stats.incr "span.bio_completed"

(* --- Inspection --- *)

(* A class's reservoir, slowest first, and a span's segments, oldest
   first: the orders [tail] and [info.i_segs] give. *)
let slowest a = List.rev a.a_res

let oldest_segs sp = List.rev sp.segs

type info = {
  i_id : int;
  i_cls : string;
  i_name : string;
  i_tid : int;
  i_begin : int64;
  i_dur : int64;
  i_residual : int64;
  i_path : (string * int64) list;
  i_segs : (string * int64 * int64) list;
}

let info_of sp =
  {
    i_id = sp.id;
    i_cls = sp.cls;
    i_name = sp.name;
    i_tid = sp.tid;
    i_begin = Int64.of_int sp.t_begin;
    i_dur = Int64.of_int (span_dur sp);
    i_residual = Int64.of_int sp.residual;
    i_path = List.map (fun (l, d) -> (l, Int64.of_int d)) sp.path;
    i_segs = List.rev_map (fun s -> (s.slabel, Int64.of_int s.s_t0, Int64.of_int s.s_t1)) sp.segs;
  }

let classes () =
  Hashtbl.fold (fun c _ acc -> c :: acc) class_tbl [] |> List.sort String.compare

let class_count cls =
  match Hashtbl.find_opt class_tbl cls with Some a -> a.a_count | None -> 0

let tail cls =
  match Hashtbl.find_opt class_tbl cls with
  | None -> []
  | Some a -> List.map info_of (slowest a)

let class_p99 cls =
  match Hashtbl.find_opt class_tbl cls with
  | None -> None
  | Some a -> (
    match List.rev a.a_res with
    | [] -> None
    | slowest_first ->
      (* With count requests, the p99 rank sits count/100 below the
         maximum; the reservoir holds the slowest 64, so the estimate
         is exact while count <= 100 * cap. *)
      let idx = min (a.a_count / 100) (List.length slowest_first - 1) in
      Some (info_of (List.nth slowest_first idx)))

let dominant_class () =
  let entries = Hashtbl.fold (fun c a acc -> (c, a.a_count) :: acc) class_tbl [] in
  let pick = function
    | [] -> None
    | l ->
      Some
        (fst
           (List.fold_left
              (fun (bc, bn) (c, n) ->
                if n > bn || (n = bn && String.compare c bc < 0) then (c, n) else (bc, bn))
              (List.hd l) (List.tl l)))
  in
  match
    List.filter (fun (c, _) -> not (String.starts_with ~prefix:"sys." c)) entries
  with
  | [] -> pick entries
  | app -> pick app

let max_residual_frac () =
  Hashtbl.fold
    (fun _ a acc ->
      List.fold_left
        (fun acc sp ->
          let d = span_dur sp in
          if d > 0 then max acc (float_of_int sp.residual /. float_of_int d) else acc)
        acc a.a_res)
    class_tbl 0.

(* --- Rendering --- *)

let pct part total = if total <= 0 then 0. else 100. *. float_of_int part /. float_of_int total

(* A class's critical-path totals, descending. *)
let class_segs a =
  Hashtbl.fold (fun l r acc -> (l, !r) :: acc) a.a_segs []
  |> List.sort (fun (la, x) (lb, y) ->
         let c = Int.compare y x in
         if c <> 0 then c else String.compare la lb)

let render_proc () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "# kspan: enabled=%b auto=%b live=%d finished=%d classes=%d\n"
       !enabled_flag !auto_flag (Hashtbl.length live) !finished
       (Hashtbl.length class_tbl));
  List.iter
    (fun cls ->
      let a = Hashtbl.find class_tbl cls in
      let total = a.a_total and residual = a.a_residual in
      let p q =
        match Hist.percentile a.a_hist q with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "-"
      in
      Buffer.add_string b
        (Printf.sprintf
           "class %-16s count=%-8d total_us=%-12.1f p50_us=%s p90_us=%s p99_us=%s max_us=%s reservoir=%d\n"
           cls a.a_count (Time.to_us total) (p 50.) (p 90.) (p 99.)
           (Printf.sprintf "%.1f" (Hist.max_value a.a_hist))
           a.a_nres);
      List.iter
        (fun (l, d) ->
          Buffer.add_string b
            (Printf.sprintf "  %-28s %10.1fus %6.2f%%\n" l (Time.to_us d) (pct d total)))
        (class_segs a);
      if residual > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %-28s %10.1fus %6.2f%%\n" "unattributed" (Time.to_us residual)
             (pct residual total)))
    (classes ());
  Buffer.contents b

let waterfall b sp =
  let t_begin = sp.t_begin and dur = span_dur sp in
  Buffer.add_string b
    (Printf.sprintf "span %d %s:%s tid=%d start=%.1fus dur=%.1fus residual=%.2f%%\n"
       sp.id sp.cls sp.name sp.tid (Time.to_us t_begin) (Time.to_us dur)
       (pct sp.residual dur));
  let bar_w = 32 in
  let scale v = v * bar_w / max 1 dur in
  let segs = List.stable_sort (fun a b -> Int.compare a.s_t0 b.s_t0) (oldest_segs sp) in
  List.iter
    (fun sg ->
      let off = max sg.s_t0 t_begin - t_begin in
      let len = min sg.s_t1 (t_begin + dur) - max sg.s_t0 t_begin in
      if len > 0 then begin
        let s = min (scale off) (bar_w - 1) in
        let w = max 1 (min (scale len) (bar_w - s)) in
        Buffer.add_string b
          (Printf.sprintf "  +%10.1fus %10.1fus %-28s |%s%s%s|\n" (Time.to_us off)
             (Time.to_us len) sg.slabel (String.make s ' ') (String.make w '#')
             (String.make (bar_w - s - w) ' '))
      end)
    segs;
  Buffer.add_string b "  critical path: ";
  Buffer.add_string b
    (String.concat ", "
       (List.map (fun (l, d) -> Printf.sprintf "%s %.1f%%" l (pct d dur)) sp.path));
  if sp.residual > 0 then
    Buffer.add_string b (Printf.sprintf ", unattributed %.1f%%" (pct sp.residual dur));
  Buffer.add_char b '\n'

let render_top ~k =
  let b = Buffer.create 1024 in
  (match dominant_class () with
  | None -> Buffer.add_string b "no finished spans\n"
  | Some cls ->
    let a = Hashtbl.find class_tbl cls in
    Buffer.add_string b
      (Printf.sprintf "slowest %d of class %s (%d finished)\n" (min k a.a_nres) cls a.a_count);
    List.iteri (fun i sp -> if i < k then waterfall b sp) (slowest a));
  List.iter
    (fun cls ->
      let a = Hashtbl.find class_tbl cls in
      Buffer.add_string b (Printf.sprintf "critical-path histogram (%s):\n" cls);
      let segs = class_segs a in
      let segs =
        if a.a_residual > 0 then segs @ [ ("unattributed", a.a_residual) ]
        else segs
      in
      List.iter
        (fun (l, d) ->
          let p = pct d a.a_total in
          let w = int_of_float (p /. 100. *. 40.) in
          Buffer.add_string b
            (Printf.sprintf "  %-28s %6.2f%% |%s%s|\n" l p (String.make w '#')
               (String.make (40 - w) ' ')))
        segs)
    (classes ());
  Buffer.contents b

(* --- Chrome trace-event JSON (Perfetto) --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let chrome_complete ~name ~cat ~ts_us ~dur_us ~track ~args =
  let args_s =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) args)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
    (json_escape name) (json_escape cat) ts_us dur_us track args_s

let chrome_instant ~ts_us ~name ~cat ~args =
  let args_s =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) args)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{%s}}"
    (json_escape name) (json_escape cat) ts_us args_s

let chrome_events () =
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun sp ->
          chrome_complete
            ~name:(sp.cls ^ ":" ^ sp.name)
            ~cat:"span"
            ~ts_us:(Time.to_us sp.t_begin)
            ~dur_us:(Time.to_us (span_dur sp))
            ~track:sp.id
            ~args:
              [
                ("class", sp.cls);
                ("span", string_of_int sp.id);
                ("residual_us", Printf.sprintf "%.3f" (Time.to_us sp.residual));
              ]
          :: List.filter_map
               (fun sg ->
                 if sg.s_t1 > sg.s_t0 then
                   Some
                     (chrome_complete ~name:sg.slabel ~cat:"seg" ~ts_us:(Time.to_us sg.s_t0)
                        ~dur_us:(Time.to_us (sg.s_t1 - sg.s_t0))
                        ~track:sp.id ~args:[])
                 else None)
               (oldest_segs sp))
        (slowest (Hashtbl.find class_tbl cls)))
    (classes ())

let chrome_wrap events =
  "{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n]}\n"
