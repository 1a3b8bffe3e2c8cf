(** Scrape adapters: sources sampled once per watch tick into the series
    store at the tick's time.  Sources must only {e read} the system they
    sample — a scrape must never perturb the run it watches. *)

type sample = string * (string * string) list * float
type t

val name : t -> string

(** Write one tick's samples into the store at [now]. *)
val scrape : t -> Series.Store.t -> now:float -> unit

(** A pull function whose samples are resolved by (name, labels) in the
    store on every tick. *)
val of_fn : name:string -> (now:float -> sample list) -> t

(** Every metric of a registry as signals: counters and gauges become
    their value; a histogram becomes [name:count], [name:sum] and one
    [name:pQ] series per requested quantile.  Each metric is bound to its
    series once; the source binds again only when the registry's
    {!Everest_telemetry.Metrics.generation} moves or it is scraped into
    another store. *)
val of_registry :
  ?prefix:string ->
  ?quantiles:float list ->
  Everest_telemetry.Metrics.registry ->
  t
