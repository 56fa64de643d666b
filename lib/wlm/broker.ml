type tenant = {
  tn_weight : int;
  mutable tn_peak : int;
  mutable tn_waits : int;    (* lease calls clipped by other tenants' floors *)
}

(* One live lease: its pages and the tenant it was granted under. *)
type lease = { pages : int; owner : string }

type t = {
  budget : int;
  floor : int;
  max_concurrency : int;
  leases : (int, lease) Hashtbl.t;  (* lease id -> lease *)
  tenants : (string, tenant) Hashtbl.t;
  mutable peak : int;
  mutable grants : int;
  mutable reclaimed : int;
}

let create ~budget_pages ~max_concurrency =
  if budget_pages < 1 then invalid_arg "Broker.create: budget_pages < 1";
  if max_concurrency < 1 then invalid_arg "Broker.create: max_concurrency < 1";
  { budget = budget_pages;
    floor = max 1 (budget_pages / max_concurrency);
    max_concurrency;
    leases = Hashtbl.create 8;
    tenants = Hashtbl.create 4;
    peak = 0;
    grants = 0;
    reclaimed = 0 }

let budget_pages t = t.budget
let floor_pages t = t.floor

let total_leased t = Hashtbl.fold (fun _ l acc -> acc + l.pages) t.leases 0

let free_pages t = t.budget - total_leased t

let outstanding t = Hashtbl.length t.leases

let lease_of t ~id =
  match Hashtbl.find_opt t.leases id with Some l -> l.pages | None -> 0

(* --- per-tenant fair shares ------------------------------------------- *)

let register_tenant t ~weight name =
  if weight < 1 then invalid_arg "Broker.register_tenant: weight < 1";
  if Hashtbl.mem t.tenants name then
    invalid_arg ("Broker.register_tenant: duplicate tenant " ^ name);
  Hashtbl.replace t.tenants name
    { tn_weight = weight; tn_peak = 0; tn_waits = 0 }

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tn -> tn
  | None -> invalid_arg ("Broker: unregistered tenant " ^ name)

let tenant_weight t name = (tenant_of t name).tn_weight

let total_weight t =
  Hashtbl.fold (fun _ tn acc -> acc + tn.tn_weight) t.tenants 0

(* A tenant's fair share of the budget, by registered weight.  This is the
   floor reserved for it while it has work: other tenants can use the
   pages only when the owner is idle (work-conserving), but an active
   tenant always finds at least its share un-leasable by anyone else. *)
let tenant_share t name = t.budget * tenant_weight t name / total_weight t

(* Summed from the live leases, one per running query, so a tenant's
   pages are never stored twice. *)
let tenant_leased t name =
  Hashtbl.fold
    (fun _ l acc -> if l.owner = name then acc + l.pages else acc)
    t.leases 0

let tenant_peak t name = (tenant_of t name).tn_peak

let tenant_floor_waits t name = (tenant_of t name).tn_waits

(* Pages held in reserve for the tenants other than [asker] that have
   work and are below their fair share. *)
let reserved_for_others t ~active asker =
  Hashtbl.fold
    (fun name _ acc ->
      if name <> asker && active name then
        acc + max 0 (tenant_share t name - tenant_leased t name)
      else acc)
    t.tenants 0

let lease t ~tenant ~pending ~active ~id ~min_pages ~max_pages =
  if min_pages < 0 || max_pages < min_pages then
    invalid_arg "Broker.lease: bad demand";
  let tn = tenant_of t tenant in
  let current = lease_of t ~id in
  (* the query's own lease is free to itself: a re-negotiation can only
     take what nobody else holds *)
  let others = outstanding t - (if Hashtbl.mem t.leases id then 1 else 0) in
  (* keep the admission floor in reserve for pending queries that could
     still occupy an open slot — one greedy lease must not serialize the
     rest of the batch behind it *)
  let open_slots = max 0 (t.max_concurrency - others - 1) in
  let reserved = t.floor * min pending open_slots in
  (* additionally keep every other active tenant's unfilled fair share in
     reserve — a batch tenant's hash joins cannot lease into the pages an
     interactive tenant is entitled to *)
  let reserved_tenants = reserved_for_others t ~active tenant in
  let available = max 0 (free_pages t + current - reserved - reserved_tenants) in
  let granted = min max_pages available in
  let granted = if granted < min_pages then min min_pages available else granted in
  let granted = max 0 granted in
  if granted < current then t.reclaimed <- t.reclaimed + (current - granted);
  Hashtbl.replace t.leases id { pages = granted; owner = tenant };
  if granted < max_pages && reserved_tenants > 0 then
    tn.tn_waits <- tn.tn_waits + 1;
  tn.tn_peak <- max tn.tn_peak (tenant_leased t tenant);
  t.grants <- t.grants + 1;
  t.peak <- max t.peak (total_leased t);
  granted

let release t ~id =
  t.reclaimed <- t.reclaimed + lease_of t ~id;
  Hashtbl.remove t.leases id

(* Admission check from a tenant's point of view: pages reserved for
   *other* tenants do not count as free, but the asker's own reserved
   share does — a tenant below its share can always admit, no matter how
   much the others have leased. *)
let can_admit_tenant t ~active name =
  let own = tenant_share t name - tenant_leased t name in
  free_pages t - reserved_for_others t ~active name >= t.floor
  || own >= t.floor

let peak_leased t = t.peak
let grants t = t.grants
let reclaimed_pages t = t.reclaimed
