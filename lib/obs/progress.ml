type label = Start | Decision | Switch | Finish

let label_to_string = function
  | Start -> "start"
  | Decision -> "decision"
  | Switch -> "switch"
  | Finish -> "finish"

type sample = {
  seq : int;
  ts_ms : float;
  remaining_est_ms : float;
  percent : float;
  eta_lo_ms : float;
  eta_hi_ms : float;
  label : label;
}

type t = {
  mutable revs : sample list;  (* newest first *)
  mutable next_seq : int;
  mutable last_percent : float;
  mutable last_eta_lo : float;
  mutable is_finished : bool;
}

let create () =
  { revs = []; next_seq = 0; last_percent = 0.0; last_eta_lo = 0.0;
    is_finished = false }

let push t s =
  t.revs <- s :: t.revs;
  t.next_seq <- t.next_seq + 1;
  t.last_percent <- s.percent;
  t.last_eta_lo <- s.eta_lo_ms;
  s

let update t ~label ~now_ms ~remaining_est_ms ~remaining_lo_ms
    ~remaining_hi_ms =
  let rem_est = Float.max 0.0 remaining_est_ms in
  let rem_lo = Float.max 0.0 remaining_lo_ms in
  let rem_hi = Float.max rem_lo (Float.max 0.0 remaining_hi_ms) in
  let total = now_ms +. rem_est in
  let raw = if total <= 0.0 then 100.0 else 100.0 *. now_ms /. total in
  let percent =
    if t.is_finished then 100.0
    else Float.max t.last_percent (Float.min 100.0 (Float.max 0.0 raw))
  in
  (* the provable finish-time floor only tightens upward; the ceiling
     may rise on a plan switch and is only pinned above the floor *)
  let eta_lo = Float.max t.last_eta_lo (now_ms +. rem_lo) in
  let eta_hi = Float.max eta_lo (now_ms +. rem_hi) in
  push t
    { seq = t.next_seq; ts_ms = now_ms; remaining_est_ms = rem_est; percent;
      eta_lo_ms = eta_lo; eta_hi_ms = eta_hi; label }

let finish t ~now_ms =
  match t.revs with
  | last :: _ when t.is_finished -> last
  | _ ->
    t.is_finished <- true;
    let eta = Float.max t.last_eta_lo now_ms in
    push t
      { seq = t.next_seq; ts_ms = now_ms; remaining_est_ms = 0.0;
        percent = 100.0; eta_lo_ms = eta; eta_hi_ms = eta; label = Finish }

let latest t = match t.revs with [] -> None | s :: _ -> Some s
let samples t = List.rev t.revs
let finished t = t.is_finished

let monotone t =
  let rec ok = function
    | a :: (b :: _ as rest) ->
      b.percent >= a.percent && b.eta_lo_ms >= a.eta_lo_ms && ok rest
    | _ -> true
  in
  List.for_all (fun s -> s.eta_hi_ms >= s.eta_lo_ms) (samples t)
  && ok (samples t)
