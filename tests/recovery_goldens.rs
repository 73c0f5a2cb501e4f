//! Golden fingerprints of the fault-recovery pool.
//!
//! The pool is reqbench's `fault-recovery` workload, drawn from the same
//! pool seed with the same constants:
//!
//! * 96 `Session::train_resilient` runs: ResNet-50@256, BERT-base@256 and
//!   BERT-large@128 under data parallelism on `2x(8xV100)+2x(8xP100)`, each
//!   against 32 seeded fault timelines;
//! * 32 elastic `FleetSim` runs of the default templates on
//!   `2x(4xV100)+2x(4xP100)`, each with its own arrival and fault seed.
//!
//! After those 128 rows come the paths the pool leaves out, appended so the
//! first 128 rows keep their names, order and digests:
//!
//! * 96 `Session::train_restart_baseline` runs on the same 96 timelines;
//! * the same 32 fleet configs with `elastic: false` (kill and requeue);
//! * `fault_bench`'s GPT-2 XL@64 pipeline (8 micro batches) under its
//!   seed-42 trace, through `train_resilient` and `train_restart_baseline`.
//!
//! Each single-job run is fingerprinted with `whale_fp::Fingerprinter` over
//! the `{:?}` rendering of the `ResilientRun` together with its session's
//! `CacheStats`; each fleet run over the `{:?}` of its `FleetReport`, which
//! already holds the shared service's counters and every job row. `{:?}`
//! prints every `f64` in its shortest round-trip form, so a digest moves if
//! and only if some output bit or counter moves.
//!
//! After an intended output change, regenerate the table with
//!
//! ```text
//! cargo test --offline --test recovery_goldens -- --ignored --nocapture print_goldens
//! ```
//!
//! and paste the printed rows over `GOLDENS`.

use std::fmt::{self, Write};
use std::sync::Arc;

use whale::{models, strategies, Cluster, LossModel, RecoveryPolicy, Session, WhaleIr};
use whale_fp::Fingerprinter;
use whale_planner::PlanService;
use whale_sim::{default_templates, FaultModel, FaultTrace, FleetConfig, FleetSim, SplitMix64};

/// reqbench's `fault_bench` cluster, fault rates, policy and run length.
const CLUSTER: &str = "2x(8xV100)+2x(8xP100)";
const TOTAL_SAMPLES: f64 = 2e6;
const MTBF_SAMPLES: f64 = 3e5;
const MTTR_SAMPLES: f64 = 1e5;
const CHECKPOINT_SAMPLES: f64 = 5e4;
/// `(model, batch, parameter count for the loss model)`.
const DP_ZOO: [(&str, usize, f64); 3] = [
    ("resnet50", 256, 25e6),
    ("bert-base", 256, 110e6),
    ("bert-large", 128, 340e6),
];
const FAULT_SEEDS_PER_IR: usize = 32;

/// reqbench's `fleet_bench` pool and churn.
const POOL: &str = "2x(4xV100)+2x(4xP100)";
const HORIZON_S: f64 = 20_000.0;
const ARRIVAL_MEAN_S: f64 = 150.0;
const FLEET_MTBF_S: f64 = 500.0;
const FLEET_MTTR_S: f64 = 800.0;
const FLEET_SEEDS: usize = 32;
/// Seed of the generator that draws the fault and fleet seeds.
const POOL_SEED: u64 = 42;
/// `fault_bench`'s fixed fault seed.
const FAULT_BENCH_SEED: u64 = 42;

/// `(run, digest)`: 96 resilient runs in zoo order, 32 elastic fleet runs,
/// 96 restart-baseline runs, 32 kill-and-requeue fleet runs, then the
/// pipeline under both single-job runtimes.
#[rustfmt::skip]
const GOLDENS: &[(&str, &str)] = &[
    ("resnet50@256 dp, fault seed 10323881320967097836", "b7fefc12a7522162"),
    ("resnet50@256 dp, fault seed 12869982717921695323", "4691c89dd7eb6e55"),
    ("resnet50@256 dp, fault seed 11488742375742264904", "c8b8b07129416358"),
    ("resnet50@256 dp, fault seed 10476116286776654055", "09a4a90033478982"),
    ("resnet50@256 dp, fault seed 312345963634373313", "5678d66683b02908"),
    ("resnet50@256 dp, fault seed 803615163389353950", "905f7088dadcebdc"),
    ("resnet50@256 dp, fault seed 16338800665597616940", "cc8d17157d4b7fec"),
    ("resnet50@256 dp, fault seed 6384949087579867550", "b59812e12d26501a"),
    ("resnet50@256 dp, fault seed 605236923660545595", "9c989adae50ff5b1"),
    ("resnet50@256 dp, fault seed 9850685138326535525", "6e98c7180a1aff3e"),
    ("resnet50@256 dp, fault seed 12877641591131952230", "315f75b21e5f46b2"),
    ("resnet50@256 dp, fault seed 12091560876658781187", "129470dc06c44da5"),
    ("resnet50@256 dp, fault seed 5624910991049430677", "18c91b4bea915e2f"),
    ("resnet50@256 dp, fault seed 363079235187807198", "fcec74f4cfb31ff2"),
    ("resnet50@256 dp, fault seed 2784582140435389923", "41dcef879f0141f6"),
    ("resnet50@256 dp, fault seed 5709260577973950137", "2668b687919f50be"),
    ("resnet50@256 dp, fault seed 11504493412682366981", "ac081cc839480175"),
    ("resnet50@256 dp, fault seed 2501182258211204735", "fb62da3739bad7b3"),
    ("resnet50@256 dp, fault seed 16870018313788230369", "3e75101a89fb6ac4"),
    ("resnet50@256 dp, fault seed 16082110215737633106", "9cfac540c74a8e14"),
    ("resnet50@256 dp, fault seed 3971791126781341424", "4f7431c759e397bd"),
    ("resnet50@256 dp, fault seed 13616153341225155440", "aef494a72f43d6e6"),
    ("resnet50@256 dp, fault seed 15785749975804531507", "cb3263145f0529e6"),
    ("resnet50@256 dp, fault seed 4248068121344752071", "13ce97e405173b1a"),
    ("resnet50@256 dp, fault seed 15911084444992225041", "fa81e5659d689cc9"),
    ("resnet50@256 dp, fault seed 7098643287219241910", "740ed564ba37aa62"),
    ("resnet50@256 dp, fault seed 9700524582396833387", "26824297d545eed8"),
    ("resnet50@256 dp, fault seed 3204840474530581766", "d8410952d7c71b51"),
    ("resnet50@256 dp, fault seed 11303413050647247442", "538afccf2e8e6b00"),
    ("resnet50@256 dp, fault seed 17986132796160300788", "b3e381344d9aa652"),
    ("resnet50@256 dp, fault seed 15294037862580007555", "f346ff0f6e3a279a"),
    ("resnet50@256 dp, fault seed 10281758668243501528", "75333507ee4821a4"),
    ("bert-base@256 dp, fault seed 5130775006035095855", "601fc4c87a9677b0"),
    ("bert-base@256 dp, fault seed 3777866000552279187", "5d8d322f1db64e86"),
    ("bert-base@256 dp, fault seed 5004489181235107741", "144e4ecc5fff496a"),
    ("bert-base@256 dp, fault seed 2275225400488622985", "0460615b6c2fc9cc"),
    ("bert-base@256 dp, fault seed 949663430711709612", "b36d06aee68cfd52"),
    ("bert-base@256 dp, fault seed 10328316416710166024", "6c1a529ab1ce8506"),
    ("bert-base@256 dp, fault seed 16292694088487330849", "675840cafa3193a8"),
    ("bert-base@256 dp, fault seed 10294491931104964508", "00cb43a8962a56f5"),
    ("bert-base@256 dp, fault seed 9708707524931524857", "941fcaced8c7ecb7"),
    ("bert-base@256 dp, fault seed 7238180669612261817", "58f87000d0e72d77"),
    ("bert-base@256 dp, fault seed 3208190975410289561", "7b785adef668e00c"),
    ("bert-base@256 dp, fault seed 3158992098725664017", "f8f5c10a38d27d64"),
    ("bert-base@256 dp, fault seed 2161781966472498435", "5bb1dac36d951b33"),
    ("bert-base@256 dp, fault seed 3976790408961248807", "436b738af0440186"),
    ("bert-base@256 dp, fault seed 5963728721652838796", "2231dec4333a28ef"),
    ("bert-base@256 dp, fault seed 2880122072926319542", "4a7312e204484232"),
    ("bert-base@256 dp, fault seed 7446616542643865989", "676b888c9c308478"),
    ("bert-base@256 dp, fault seed 10058260214357459607", "5a75d1a5f6fd9771"),
    ("bert-base@256 dp, fault seed 17347057319601501655", "f118e97a0d95b11a"),
    ("bert-base@256 dp, fault seed 207056901732465883", "30364ffdb5b9756e"),
    ("bert-base@256 dp, fault seed 2215869632666035512", "7a72229da6dd66f1"),
    ("bert-base@256 dp, fault seed 9695260233675026548", "97ce4d3d0014eaf6"),
    ("bert-base@256 dp, fault seed 10563463656224285841", "fc64404c09ee7492"),
    ("bert-base@256 dp, fault seed 3156049409984829003", "ee168a5352e25013"),
    ("bert-base@256 dp, fault seed 11470077762525960218", "1f21b55dbfa73e44"),
    ("bert-base@256 dp, fault seed 1542792815576331151", "b9a716e237f5f60d"),
    ("bert-base@256 dp, fault seed 2899477093377341925", "a3fa879efa0f562c"),
    ("bert-base@256 dp, fault seed 9485996062154709921", "0b0c65082a73c8d8"),
    ("bert-base@256 dp, fault seed 13394121679617223755", "9d77113203643981"),
    ("bert-base@256 dp, fault seed 6238686593724707205", "0f99b57a68b279fc"),
    ("bert-base@256 dp, fault seed 14612666341245048600", "5074013f0ba08746"),
    ("bert-base@256 dp, fault seed 13903414374466212635", "071cc0dcc515b3fd"),
    ("bert-large@128 dp, fault seed 18404006061513558722", "744ebeb86fba065e"),
    ("bert-large@128 dp, fault seed 10172277709730669391", "d3a3cfe1d7f3d879"),
    ("bert-large@128 dp, fault seed 5978380924172289477", "75374d0a53368885"),
    ("bert-large@128 dp, fault seed 8412057735001642792", "292ce5c508d61456"),
    ("bert-large@128 dp, fault seed 18106948417846911589", "9f58d0275d5fd3ef"),
    ("bert-large@128 dp, fault seed 2289593688811700840", "05997d354f36694d"),
    ("bert-large@128 dp, fault seed 142389399808037146", "2088b19f2696cb98"),
    ("bert-large@128 dp, fault seed 9947200782895737166", "02a70485556f09a2"),
    ("bert-large@128 dp, fault seed 10633988056446727867", "718f5ada06f7d1f1"),
    ("bert-large@128 dp, fault seed 12691043987895228516", "6c0c137adc13e098"),
    ("bert-large@128 dp, fault seed 6996260301986289215", "00ff785e84e89336"),
    ("bert-large@128 dp, fault seed 13788888803084379789", "2ea5493eacf299f2"),
    ("bert-large@128 dp, fault seed 17970730578506540546", "853b41f5d0c4dea7"),
    ("bert-large@128 dp, fault seed 10045133116583509479", "0f14f83e78aa06e5"),
    ("bert-large@128 dp, fault seed 5229917167743131074", "df0024a771403bfa"),
    ("bert-large@128 dp, fault seed 10258784986913397271", "118db4df6f6d4ee3"),
    ("bert-large@128 dp, fault seed 11534534957980558078", "f61a249e4c7dc59c"),
    ("bert-large@128 dp, fault seed 13656001568793745744", "da2800d96004679f"),
    ("bert-large@128 dp, fault seed 5488618846926958918", "1cdf6a0b2bdd248b"),
    ("bert-large@128 dp, fault seed 12793774147865065000", "2d642b261572ac42"),
    ("bert-large@128 dp, fault seed 17457159777972732819", "8a42c6b879e504a7"),
    ("bert-large@128 dp, fault seed 13652221466364336784", "238252abf5234754"),
    ("bert-large@128 dp, fault seed 13327657598914939852", "de59c22b473fc8e7"),
    ("bert-large@128 dp, fault seed 17858368259639474622", "14abf3e2cd9975df"),
    ("bert-large@128 dp, fault seed 6416574269810060821", "d16d4b9c63dcdbad"),
    ("bert-large@128 dp, fault seed 10173850913983801098", "dbfac1f4d1ea3882"),
    ("bert-large@128 dp, fault seed 5503616699604817570", "648473be9c952384"),
    ("bert-large@128 dp, fault seed 6730976720153782048", "fa14f26258888adc"),
    ("bert-large@128 dp, fault seed 2103543648510000744", "923a360c401cc439"),
    ("bert-large@128 dp, fault seed 311611372060783878", "512c0c276106359a"),
    ("bert-large@128 dp, fault seed 17207852975254897009", "da730b33ffb82408"),
    ("bert-large@128 dp, fault seed 4463982583340188321", "4fc668d4df954fa3"),
    ("fleet seed 17765937235345796552", "5c76d8c6aba4a130"),
    ("fleet seed 16567298493753144608", "23412fa717de8bd3"),
    ("fleet seed 12990501385494226620", "b27c9b9ffcb2bbfa"),
    ("fleet seed 17154016833739105851", "95ccb69a48b48245"),
    ("fleet seed 5145753270068877250", "3ad85022574c4d51"),
    ("fleet seed 12919321427790108149", "612987c4a9d86f8c"),
    ("fleet seed 14658762231984923819", "a04adf27dbb0cd10"),
    ("fleet seed 11241248446831675200", "43d8a87c0f3d7055"),
    ("fleet seed 9836181604777978464", "40015d5fe824d640"),
    ("fleet seed 11448312435264278525", "2db8f4df7f9c51a2"),
    ("fleet seed 4708816278000212501", "85cd628561a3b011"),
    ("fleet seed 16977367813807316090", "6bdd5a6055a04625"),
    ("fleet seed 8269583442146323626", "dabceba733593732"),
    ("fleet seed 10718180334440680186", "d54ec8a18fd8e33d"),
    ("fleet seed 6176791632289228528", "def6f725a465b022"),
    ("fleet seed 6795947700525455040", "64ce2df4ceb3be96"),
    ("fleet seed 5408853200262923065", "ed53c668ead9f9df"),
    ("fleet seed 12884520706102591440", "a71a53428ce55ad5"),
    ("fleet seed 8514464949711072427", "09d709a06555d248"),
    ("fleet seed 7189863003136177769", "95cb4602487f3362"),
    ("fleet seed 9493421940370344049", "3b4a5022c697f876"),
    ("fleet seed 10771280074630138410", "31c2dcd55694a055"),
    ("fleet seed 3124471196131739903", "7e1a86ace6275c0c"),
    ("fleet seed 11607500177040361820", "58da2764c7ae5ec8"),
    ("fleet seed 14719169730174774062", "052a742dad3a5c29"),
    ("fleet seed 5119073571986143838", "2b244459195f657d"),
    ("fleet seed 6303810661889927670", "1aa8b797bc8fd910"),
    ("fleet seed 5342576205051778816", "a98a9e32f02fd2aa"),
    ("fleet seed 6957000678174160122", "a817e51108c0a3f4"),
    ("fleet seed 6333366722996808380", "2da31f207e82fe73"),
    ("fleet seed 13087831166181453731", "56a55f345a60b6d5"),
    ("fleet seed 15995272075074425702", "3ef205fff15ef0bb"),
    ("resnet50@256 dp restart, fault seed 10323881320967097836", "79cb8c3d2ffc4894"),
    ("resnet50@256 dp restart, fault seed 12869982717921695323", "69547a162557ff2b"),
    ("resnet50@256 dp restart, fault seed 11488742375742264904", "f1f79cdf58702780"),
    ("resnet50@256 dp restart, fault seed 10476116286776654055", "b9eec351d1f39d55"),
    ("resnet50@256 dp restart, fault seed 312345963634373313", "58f559ff4e3844a8"),
    ("resnet50@256 dp restart, fault seed 803615163389353950", "8ebbee5240a062de"),
    ("resnet50@256 dp restart, fault seed 16338800665597616940", "53689556d70bc883"),
    ("resnet50@256 dp restart, fault seed 6384949087579867550", "556b7909c9990009"),
    ("resnet50@256 dp restart, fault seed 605236923660545595", "d48e4d16670cbdb8"),
    ("resnet50@256 dp restart, fault seed 9850685138326535525", "7aaa8c844825d57f"),
    ("resnet50@256 dp restart, fault seed 12877641591131952230", "d04f956747006dee"),
    ("resnet50@256 dp restart, fault seed 12091560876658781187", "a577b9cec1d0137e"),
    ("resnet50@256 dp restart, fault seed 5624910991049430677", "b8f0b26f90f41a89"),
    ("resnet50@256 dp restart, fault seed 363079235187807198", "41eb4ef328fa8584"),
    ("resnet50@256 dp restart, fault seed 2784582140435389923", "8f52270993a752ad"),
    ("resnet50@256 dp restart, fault seed 5709260577973950137", "3aba1908d9877c0f"),
    ("resnet50@256 dp restart, fault seed 11504493412682366981", "2349f7893c8671b8"),
    ("resnet50@256 dp restart, fault seed 2501182258211204735", "2b8db5c373f15c3c"),
    ("resnet50@256 dp restart, fault seed 16870018313788230369", "578015063ab25245"),
    ("resnet50@256 dp restart, fault seed 16082110215737633106", "cb8e3ddf67557981"),
    ("resnet50@256 dp restart, fault seed 3971791126781341424", "17ec3eea8081bf42"),
    ("resnet50@256 dp restart, fault seed 13616153341225155440", "6bc478eb90558591"),
    ("resnet50@256 dp restart, fault seed 15785749975804531507", "ee109ac4071e5812"),
    ("resnet50@256 dp restart, fault seed 4248068121344752071", "bb4bbf0b54b3b761"),
    ("resnet50@256 dp restart, fault seed 15911084444992225041", "1371ff7c4354d508"),
    ("resnet50@256 dp restart, fault seed 7098643287219241910", "4e7484f17f89f950"),
    ("resnet50@256 dp restart, fault seed 9700524582396833387", "bf73335a4c19ebba"),
    ("resnet50@256 dp restart, fault seed 3204840474530581766", "89210ae6a19463a1"),
    ("resnet50@256 dp restart, fault seed 11303413050647247442", "2c19c15b0bc9e437"),
    ("resnet50@256 dp restart, fault seed 17986132796160300788", "f570d6f5e59e8041"),
    ("resnet50@256 dp restart, fault seed 15294037862580007555", "2c198aa12a31c74f"),
    ("resnet50@256 dp restart, fault seed 10281758668243501528", "2cce303af80de103"),
    ("bert-base@256 dp restart, fault seed 5130775006035095855", "81e14bb7370413c0"),
    ("bert-base@256 dp restart, fault seed 3777866000552279187", "a9c6ab8d580ec42e"),
    ("bert-base@256 dp restart, fault seed 5004489181235107741", "b695c394cc18191f"),
    ("bert-base@256 dp restart, fault seed 2275225400488622985", "2f7e891272695be1"),
    ("bert-base@256 dp restart, fault seed 949663430711709612", "5d2d81d97753d476"),
    ("bert-base@256 dp restart, fault seed 10328316416710166024", "1a475c428901e6d5"),
    ("bert-base@256 dp restart, fault seed 16292694088487330849", "330206c1f0d10c20"),
    ("bert-base@256 dp restart, fault seed 10294491931104964508", "af5558bb4d930878"),
    ("bert-base@256 dp restart, fault seed 9708707524931524857", "dba4b25a6d719970"),
    ("bert-base@256 dp restart, fault seed 7238180669612261817", "98118740c1b90f0f"),
    ("bert-base@256 dp restart, fault seed 3208190975410289561", "556a08d5f8dcc013"),
    ("bert-base@256 dp restart, fault seed 3158992098725664017", "058451eb9c9e6036"),
    ("bert-base@256 dp restart, fault seed 2161781966472498435", "a475ac83408c9929"),
    ("bert-base@256 dp restart, fault seed 3976790408961248807", "cbcf54a9ec7b68c1"),
    ("bert-base@256 dp restart, fault seed 5963728721652838796", "d19202c734028731"),
    ("bert-base@256 dp restart, fault seed 2880122072926319542", "26e6a80a5ffcd86b"),
    ("bert-base@256 dp restart, fault seed 7446616542643865989", "17204cd089bcaf80"),
    ("bert-base@256 dp restart, fault seed 10058260214357459607", "444d624b901ebd70"),
    ("bert-base@256 dp restart, fault seed 17347057319601501655", "97c59cfecb070e02"),
    ("bert-base@256 dp restart, fault seed 207056901732465883", "96bba715ab8abed3"),
    ("bert-base@256 dp restart, fault seed 2215869632666035512", "cd1df88ab46f645b"),
    ("bert-base@256 dp restart, fault seed 9695260233675026548", "f08dd77d819f5a7f"),
    ("bert-base@256 dp restart, fault seed 10563463656224285841", "32f36028425f5e11"),
    ("bert-base@256 dp restart, fault seed 3156049409984829003", "11144ae0f77bb92a"),
    ("bert-base@256 dp restart, fault seed 11470077762525960218", "231fda25664736bd"),
    ("bert-base@256 dp restart, fault seed 1542792815576331151", "a74a104b11468f1d"),
    ("bert-base@256 dp restart, fault seed 2899477093377341925", "fd93e2a31db92f60"),
    ("bert-base@256 dp restart, fault seed 9485996062154709921", "572cfce95e6fed23"),
    ("bert-base@256 dp restart, fault seed 13394121679617223755", "5c7d6545b782b7fd"),
    ("bert-base@256 dp restart, fault seed 6238686593724707205", "0cf173e0ab38627f"),
    ("bert-base@256 dp restart, fault seed 14612666341245048600", "603d30ad8e0aaae1"),
    ("bert-base@256 dp restart, fault seed 13903414374466212635", "f6745540c92068d9"),
    ("bert-large@128 dp restart, fault seed 18404006061513558722", "d5c782ae6e227998"),
    ("bert-large@128 dp restart, fault seed 10172277709730669391", "0e2423cca9de897f"),
    ("bert-large@128 dp restart, fault seed 5978380924172289477", "e1f85de260bf372f"),
    ("bert-large@128 dp restart, fault seed 8412057735001642792", "6205cc87edb4c9ac"),
    ("bert-large@128 dp restart, fault seed 18106948417846911589", "08398a5f298f2f20"),
    ("bert-large@128 dp restart, fault seed 2289593688811700840", "924b128ac81dc072"),
    ("bert-large@128 dp restart, fault seed 142389399808037146", "9fe92c90fae2060e"),
    ("bert-large@128 dp restart, fault seed 9947200782895737166", "c858ff0a804503b0"),
    ("bert-large@128 dp restart, fault seed 10633988056446727867", "23585eb4330c9e84"),
    ("bert-large@128 dp restart, fault seed 12691043987895228516", "9fb8918b666d11d0"),
    ("bert-large@128 dp restart, fault seed 6996260301986289215", "4965b69e0f31c96d"),
    ("bert-large@128 dp restart, fault seed 13788888803084379789", "0ce7d350c4f09a37"),
    ("bert-large@128 dp restart, fault seed 17970730578506540546", "4ba089673516ae0b"),
    ("bert-large@128 dp restart, fault seed 10045133116583509479", "caaa91c892104546"),
    ("bert-large@128 dp restart, fault seed 5229917167743131074", "c907e2959a6d0bee"),
    ("bert-large@128 dp restart, fault seed 10258784986913397271", "3ada36664bfb3055"),
    ("bert-large@128 dp restart, fault seed 11534534957980558078", "89b6cffe0033615c"),
    ("bert-large@128 dp restart, fault seed 13656001568793745744", "4cca1e6589af7d99"),
    ("bert-large@128 dp restart, fault seed 5488618846926958918", "abb6ab1e5fc21df0"),
    ("bert-large@128 dp restart, fault seed 12793774147865065000", "b0d3cd90701cdfbc"),
    ("bert-large@128 dp restart, fault seed 17457159777972732819", "3fa5b88b126a74f1"),
    ("bert-large@128 dp restart, fault seed 13652221466364336784", "6b17be6c4d5c62ac"),
    ("bert-large@128 dp restart, fault seed 13327657598914939852", "384c2a5b961ac40c"),
    ("bert-large@128 dp restart, fault seed 17858368259639474622", "4bfc361ce2b5a9db"),
    ("bert-large@128 dp restart, fault seed 6416574269810060821", "e0f712f2fa9bd121"),
    ("bert-large@128 dp restart, fault seed 10173850913983801098", "fca2fe0e1ebc03bb"),
    ("bert-large@128 dp restart, fault seed 5503616699604817570", "901aec4c586c6476"),
    ("bert-large@128 dp restart, fault seed 6730976720153782048", "8dd1d671966f9e53"),
    ("bert-large@128 dp restart, fault seed 2103543648510000744", "4d0b5798dd767703"),
    ("bert-large@128 dp restart, fault seed 311611372060783878", "0b829ead881e2a16"),
    ("bert-large@128 dp restart, fault seed 17207852975254897009", "eefc4b14f0a19b49"),
    ("bert-large@128 dp restart, fault seed 4463982583340188321", "6861a62d422cd894"),
    ("fleet seed 17765937235345796552 kill-and-requeue", "773c4a0d3232cac3"),
    ("fleet seed 16567298493753144608 kill-and-requeue", "9e2b04170312c907"),
    ("fleet seed 12990501385494226620 kill-and-requeue", "3001f7a53c3c3e2b"),
    ("fleet seed 17154016833739105851 kill-and-requeue", "4a5db79c4f53e26c"),
    ("fleet seed 5145753270068877250 kill-and-requeue", "11814ab3c8333334"),
    ("fleet seed 12919321427790108149 kill-and-requeue", "c464f847249da5a5"),
    ("fleet seed 14658762231984923819 kill-and-requeue", "fba4f551e7fcf0dd"),
    ("fleet seed 11241248446831675200 kill-and-requeue", "edef303574569257"),
    ("fleet seed 9836181604777978464 kill-and-requeue", "8d7a7d09ba7e50e3"),
    ("fleet seed 11448312435264278525 kill-and-requeue", "900210ea1697232c"),
    ("fleet seed 4708816278000212501 kill-and-requeue", "48acdfbf77fd9cea"),
    ("fleet seed 16977367813807316090 kill-and-requeue", "4a46ffdf952eb4d3"),
    ("fleet seed 8269583442146323626 kill-and-requeue", "50754171c69f196f"),
    ("fleet seed 10718180334440680186 kill-and-requeue", "51c2793fd97fe7e7"),
    ("fleet seed 6176791632289228528 kill-and-requeue", "6fb5262c6b1ceb07"),
    ("fleet seed 6795947700525455040 kill-and-requeue", "3bceab6b216fb710"),
    ("fleet seed 5408853200262923065 kill-and-requeue", "49b4c0d4a1af13de"),
    ("fleet seed 12884520706102591440 kill-and-requeue", "de57cdcac3d0ffbf"),
    ("fleet seed 8514464949711072427 kill-and-requeue", "259a67d923059e26"),
    ("fleet seed 7189863003136177769 kill-and-requeue", "d5a3c110336df54f"),
    ("fleet seed 9493421940370344049 kill-and-requeue", "4b234a33800cbcf3"),
    ("fleet seed 10771280074630138410 kill-and-requeue", "1e6c17f86cdde23c"),
    ("fleet seed 3124471196131739903 kill-and-requeue", "a90d67ead3e8679e"),
    ("fleet seed 11607500177040361820 kill-and-requeue", "22f6b62582b9a96e"),
    ("fleet seed 14719169730174774062 kill-and-requeue", "9c728f56d048251c"),
    ("fleet seed 5119073571986143838 kill-and-requeue", "97f2f3b845cf33ea"),
    ("fleet seed 6303810661889927670 kill-and-requeue", "e4449e59e826e31e"),
    ("fleet seed 5342576205051778816 kill-and-requeue", "6502ea1f9939aa1b"),
    ("fleet seed 6957000678174160122 kill-and-requeue", "f7e2c56bb00e6e23"),
    ("fleet seed 6333366722996808380 kill-and-requeue", "f5d169b38293a903"),
    ("fleet seed 13087831166181453731 kill-and-requeue", "5a95832d0bb3be7a"),
    ("fleet seed 15995272075074425702 kill-and-requeue", "83f5b050081a828b"),
    ("gpt2-xl@64 pipeline, fault seed 42", "14684ad01925952f"),
    ("gpt2-xl@64 pipeline restart, fault seed 42", "afe538eb3cf35afd"),
];

/// reqbench's seed stream: a SplitMix64 derived from the seed and an FNV-1a
/// hash of a purpose tag.
fn seed_stream(seed: u64, purpose: &str) -> SplitMix64 {
    let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut mix = SplitMix64::seed_from_u64(seed ^ tag);
    SplitMix64::seed_from_u64(mix.next_u64())
}

fn dp_ir(model: &str, batch: usize) -> WhaleIr {
    let graph = match model {
        "resnet50" => models::resnet50(batch),
        "bert-base" => models::bert_base(batch, 128),
        "bert-large" => models::bert_large(batch, 128),
        other => panic!("unknown pool member {other}"),
    }
    .unwrap();
    strategies::data_parallel(graph, batch).unwrap()
}

/// Streams `{:?}` output straight into a fingerprint.
struct FpWriter(Fingerprinter);

impl Write for FpWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.push_bytes(s.as_bytes());
        Ok(())
    }
}

fn fingerprint(domain: &str, value: &dyn fmt::Debug) -> String {
    let mut w = FpWriter(Fingerprinter::new(domain));
    write!(w, "{value:?}").unwrap();
    w.0.finish().to_string()
}

/// The policy every single-job run recovers under.
fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_interval: CHECKPOINT_SAMPLES,
        ..RecoveryPolicy::default()
    }
}

fn trace(cluster: &Cluster, seed: u64) -> FaultTrace {
    let faults = FaultModel {
        mtbf_samples: MTBF_SAMPLES,
        mttr_samples: MTTR_SAMPLES,
        seed,
    };
    FaultTrace::generate(cluster, &faults, TOTAL_SAMPLES * 4.0)
}

/// One single-job run, through the resilient runtime or the restart
/// baseline, fingerprinted together with its session's cache counters.
fn single_job_digest(
    cluster: &Cluster,
    ir: &WhaleIr,
    loss: &LossModel,
    trace: &FaultTrace,
    restart: bool,
    name: &str,
) -> String {
    let mut session = Session::new(cluster.clone());
    let run = if restart {
        session.train_restart_baseline(ir, loss, TOTAL_SAMPLES, trace, &policy())
    } else {
        session.train_resilient(ir, loss, TOTAL_SAMPLES, trace, &policy())
    }
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    let cache = session.cache_stats().unwrap_or_default();
    fingerprint("recovery/resilient", &(&run, &cache))
}

fn fleet_digest(pool: &Cluster, seed: u64, fault_seed: u64, elastic: bool, name: &str) -> String {
    let cfg = FleetConfig {
        seed,
        horizon_s: HORIZON_S,
        arrival_mean_s: ARRIVAL_MEAN_S,
        gpu_choices: vec![2, 4, 8],
        elastic,
        faults: FaultModel {
            mtbf_samples: FLEET_MTBF_S,
            mttr_samples: FLEET_MTTR_S,
            seed: fault_seed,
        },
        ..FleetConfig::default()
    };
    let report = FleetSim::with_service(
        pool.clone(),
        default_templates(),
        cfg,
        Arc::new(PlanService::default()),
    )
    .and_then(FleetSim::run)
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    fingerprint("recovery/fleet", &report)
}

/// Every run's name and digest, in pool order.
fn pool_digests() -> Vec<(String, String)> {
    let mut seeds = seed_stream(POOL_SEED, "fault-recovery/seeds");
    let cluster = Cluster::parse(CLUSTER).unwrap();
    let zoo: Vec<(String, WhaleIr, LossModel, Vec<u64>)> = DP_ZOO
        .iter()
        .map(|&(model, batch, params)| {
            let fault_seeds = (0..FAULT_SEEDS_PER_IR).map(|_| seeds.next_u64()).collect();
            (
                format!("{model}@{batch} dp"),
                dp_ir(model, batch),
                LossModel::for_params(params),
                fault_seeds,
            )
        })
        .collect();
    // Field order matters: the arrival seed is drawn before the fault seed,
    // as in reqbench's struct literal.
    let fleet_seeds: Vec<(u64, u64)> = (0..FLEET_SEEDS)
        .map(|_| (seeds.next_u64(), seeds.next_u64()))
        .collect();
    let pool = Cluster::parse(POOL).unwrap();

    let mut out = Vec::new();
    let single_jobs = |out: &mut Vec<(String, String)>, restart: bool| {
        let runtime = if restart { " restart" } else { "" };
        for (case, ir, loss, fault_seeds) in &zoo {
            for &fault_seed in fault_seeds {
                let name = format!("{case}{runtime}, fault seed {fault_seed}");
                let trace = trace(&cluster, fault_seed);
                let digest = single_job_digest(&cluster, ir, loss, &trace, restart, &name);
                out.push((name, digest));
            }
        }
    };
    let fleets = |out: &mut Vec<(String, String)>, elastic: bool| {
        let runtime = if elastic { "" } else { " kill-and-requeue" };
        for &(seed, fault_seed) in &fleet_seeds {
            let name = format!("fleet seed {seed}{runtime}");
            let digest = fleet_digest(&pool, seed, fault_seed, elastic, &name);
            out.push((name, digest));
        }
    };
    single_jobs(&mut out, false);
    fleets(&mut out, true);
    single_jobs(&mut out, true);
    fleets(&mut out, false);

    let gpt = strategies::pipeline_only(models::gpt2_xl(64, 128).unwrap(), 64, 8).unwrap();
    let loss = LossModel::for_params(1.5e9);
    let trace = trace(&cluster, FAULT_BENCH_SEED);
    for restart in [false, true] {
        let runtime = if restart { " restart" } else { "" };
        let name = format!("gpt2-xl@64 pipeline{runtime}, fault seed {FAULT_BENCH_SEED}");
        let digest = single_job_digest(&cluster, &gpt, &loss, &trace, restart, &name);
        out.push((name, digest));
    }
    out
}

#[test]
fn recovery_pool_matches_its_golden_fingerprints() {
    let got = pool_digests();
    assert_eq!(got.len(), GOLDENS.len(), "pool size changed");
    let mut diffs = Vec::new();
    for ((name, digest), &(g_name, g_digest)) in got.iter().zip(GOLDENS) {
        assert_eq!(name, g_name, "pool order changed");
        if digest != g_digest {
            diffs.push(format!("{name}: {digest} != golden {g_digest}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "golden digests moved:\n{}",
        diffs.join("\n")
    );
}

#[test]
#[ignore = "prints the GOLDENS table; run it to regenerate after an intended change"]
fn print_goldens() {
    for (name, digest) in pool_digests() {
        println!("    (\"{name}\", \"{digest}\"),");
    }
}
