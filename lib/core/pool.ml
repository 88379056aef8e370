(* A minimal fixed-size domain pool (OCaml 5 [Domain.spawn], no external
   dependencies) used to fan verification work out across cores: initial
   states in [Verify.check_triple], Table 1 rows in the report layer.

   Work items are claimed off a shared atomic counter, so long and short
   items balance across domains without any up-front partitioning.

   Supervision is per item: each application is wrapped, failures are
   retried once (by default) and then quarantined as a per-item [Error],
   so one crashing item no longer destroys its siblings' results and the
   caller decides whether partial results are usable ([map_result]) or
   not ([map]). *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

type error = {
  e_exn : exn;
  e_backtrace : Printexc.raw_backtrace;
  e_attempts : int;
  e_backoff_s : float;
}

let pp_error ppf e =
  Fmt.pf ppf "%s (after %d attempt%s%a)"
    (Printexc.to_string e.e_exn)
    e.e_attempts
    (if e.e_attempts = 1 then "" else "s")
    (fun ppf s -> if s > 0. then Fmt.pf ppf ", %.0fms backoff" (s *. 1000.))
    e.e_backoff_s

exception Never_ran

(* Pre-filled into every result slot: a worker dying between claim and
   store (which no code path should allow — applications are wrapped)
   leaves an explicit [Error Never_ran] instead of an empty option whose
   [Option.get] would mask the real failure. *)
let never_ran =
  Error
    {
      e_exn = Never_ran;
      e_backtrace = Printexc.get_callstack 0;
      e_attempts = 0;
      e_backoff_s = 0.;
    }

(* Delay before retry [k] (the k-th attempt, k >= 2) of item [i]:
   exponential in the retry number, with seeded jitter so a batch of
   items quarantined by the same transient (an OOM spike, an fd-limit
   brush) doesn't re-hit it in lockstep.  Deterministic per
   (seed, item, attempt), like every other randomness in the engine. *)
let backoff_delay ~seed ~base i k =
  let st = Random.State.make [| seed; i; k |] in
  base *. (2. ** float_of_int (k - 2)) *. (0.5 +. Random.State.float st 1.0)

let map_result ~jobs ?(retries = 1) ?(backoff_s = 0.01) ?(backoff_seed = 0)
    ?(until = fun _ -> false) (f : 'a -> 'b) (xs : 'a list) :
    ('b, error) result list =
  let n = List.length xs in
  if n = 0 then []
  else begin
    let jobs = max 1 (min jobs n) in
    let input = Array.of_list xs in
    let results = Array.make n never_ran in
    (* The lowest index known to satisfy [until] ([n]: none yet).  Items
       are claimed in index order, so every item below it has already
       started, and an item above it is skipped. *)
    let stop_at = Atomic.make n in
    let rec lower_stop i =
      let s = Atomic.get stop_at in
      if i < s && not (Atomic.compare_and_set stop_at s i) then lower_stop i
    in
    let run_item i =
      let rec attempt k slept =
        match f input.(i) with
        | v -> Ok v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          if k <= retries then begin
            let d =
              if backoff_s > 0. then
                backoff_delay ~seed:backoff_seed ~base:backoff_s i (k + 1)
              else 0.
            in
            if d > 0. then Unix.sleepf d;
            attempt (k + 1) (slept +. d)
          end
          else Error { e_exn = e; e_backtrace = bt; e_attempts = k;
                       e_backoff_s = slept }
      in
      let r = attempt 1 0. in
      results.(i) <- r;
      if until r then lower_stop i
    in
    if jobs <= 1 then begin
      let i = ref 0 in
      while !i < n && !i <= Atomic.get stop_at do
        run_item !i;
        incr i
      done
    end
    else begin
      let next = Atomic.make 0 in
      let rec worker () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && i <= Atomic.get stop_at then begin
          run_item i;
          worker ()
        end
      in
      let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      (* A domain whose worker raised outside [run_item] (it cannot, but
         belt and braces) re-raises at join; swallow so the per-item
         [Never_ran] markers report the loss instead. *)
      List.iter (fun d -> try Domain.join d with _ -> ()) domains
    end;
    List.init (min n (Atomic.get stop_at + 1)) (Array.get results)
  end

let map ~jobs f xs =
  List.map
    (function
      | Ok v -> v
      | Error e -> Printexc.raise_with_backtrace e.e_exn e.e_backtrace)
    (map_result ~jobs ~retries:0 f xs)
