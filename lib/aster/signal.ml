let sigkill = 9
let sigchld = 17

type disposition = Default | Ignore | Handled

type state = {
  actions : disposition array; (* indexed by signal, 1..64 *)
  mutable blocked : int;
  mutable pend : int;
}

let fresh () = { actions = Array.make 65 Default; blocked = 0; pend = 0 }

let valid signal = signal >= 1 && signal <= 64

let set_action st ~signal d = if valid signal && signal <> sigkill then st.actions.(signal) <- d

let action st ~signal = if valid signal then st.actions.(signal) else Default

let bit signal = 1 lsl (signal - 1)

let block st ~mask = st.blocked <- st.blocked lor (mask land lnot (bit sigkill))

let unblock st ~mask = st.blocked <- st.blocked land lnot mask

let mask st = st.blocked

let default_terminates signal =
  not (List.mem signal [ sigchld; 23 (* SIGURG *); 28 (* SIGWINCH *) ])

let post st ~signal =
  if not (valid signal) then `Ignored
  else if signal = sigkill then `Terminate
  else
    match st.actions.(signal) with
    | Ignore | Handled ->
      st.pend <- st.pend lor bit signal;
      `Ignored
    | Default ->
      if not (default_terminates signal) then `Ignored
      else if st.blocked land bit signal <> 0 then begin
        st.pend <- st.pend lor bit signal;
        `Queued
      end
      else `Terminate

let take_deliverable st =
  let rec scan signal =
    if signal > 64 then None
    else if
      st.pend land bit signal <> 0
      && st.blocked land bit signal = 0
      && st.actions.(signal) = Default
      && default_terminates signal
    then begin
      st.pend <- st.pend land lnot (bit signal);
      Some signal
    end
    else scan (signal + 1)
  in
  scan 1

let pending st = st.pend
