(* The readiness seam: every waitable kernel object (pipe or FIFO file,
   TCP conn/listener, UDP socket, unix-socket endpoint) owns one of
   these.
   A pollable couples a *level* function — "which poll bits are true
   right now" — with an edge-publication channel that epoll instances
   and blocked poll(2) callers subscribe to.

   Two invariants the whole readiness layer leans on:

   - No lost wakeups: every state transition that can turn a poll bit
     on (enqueue, dequeue freeing space, accept-queue push, EOF,
     error) calls [publish] *after* the state change, so a subscriber
     that checked the level before the edge either saw the bit already
     set or gets the notification.  Subscription and the level
     re-check happen without yielding (the sim is cooperative and
     single-CPU), so there is no window for an edge to slip between
     "checked: not ready" and "blocked".

   - Unobserved publication is free: [publish] with no watchers
     charges zero virtual cycles and allocates no events, so
     blocking-only workloads (everything that existed before epoll)
     keep their committed timings byte-for-byte. Wake costs are
     charged by [Wait_queue.wake_*] only when a task is actually
     woken, exactly as the blocking paths already do. *)

(* poll(2)/epoll event bits — Linux values. POLLIN deliberately equals
   1 so legacy revents=1 assertions keep meaning "readable". *)
let pollin = 0x001
let pollpri = 0x002
let pollout = 0x004
let pollerr = 0x008
let pollhup = 0x010
let pollnval = 0x020
let pollrdhup = 0x2000

(* Internal edge bit (never reported to userspace): the object behind
   this pollable is going away. Linux's EPOLLFREE — epoll watchers that
   see it drop their registration, which is how closing an fd removes
   it from every epoll interest list without an explicit DEL. *)
let pollfree = 1 lsl 29

type watcher = { notify : int -> unit; mutable active : bool }

(* Blocked poll(2) callers subscribe as watchers too, each with a wait
   queue of its own. *)
type t = {
  mutable level : unit -> int;  (* current readiness bits *)
  mutable watchers : watcher list;  (* subscribers, attach order *)
}

let create level = { level; watchers = [] }

(* Objects whose level closure must capture the owning record set it
   right after construction (the record can't reference itself while
   being built). *)
let set_level t f = t.level <- f

let level t = t.level ()

let attach t notify =
  let w = { notify; active = true } in
  t.watchers <- t.watchers @ [ w ];
  w

let detach t w =
  w.active <- false;
  t.watchers <- List.filter (fun x -> x != w) t.watchers

(* Publish an edge transition carrying the bits that just turned on.
   Watchers run synchronously (they only enqueue/flag — never block);
   the [active] guard covers watchers detached by an earlier watcher
   in the same publication. *)
let publish t edge =
  match t.watchers with
  | [] -> ()
  | ws -> List.iter (fun w -> if w.active then w.notify edge) ws

(* The owning object is being destroyed (last fd reference dropped).
   Notify watchers with [pollfree] so epoll registrations unhook
   themselves, then clear the list — nothing may publish through a
   freed pollable again. Unwatched objects pay nothing. *)
let free t =
  (match t.watchers with
  | [] -> ()
  | ws -> List.iter (fun w -> if w.active then w.notify pollfree) ws);
  t.watchers <- []
