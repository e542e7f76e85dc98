"""Golden SHA-256 digests of CLI output.

Pins the exact bytes of every `sigeom figure` file and of the `surface`
tables and reports for a fixed set of in-contract profile specs (Bessel
arguments s*u <= 10), so that refactors and speed-ups can prove they left
every printed digit unchanged.  A digest here changes only when a value
does; update it together with a CHANGES.md line that says why.
"""

import hashlib

import numpy as np
import pytest

from mp_bessel import JET_BOUND, jet_error, modified_jet_errors, plain_jet_errors
from sigeom import RevolutionSurface, make_grid
from sigeom.bessel import i0_jet, j0_jet, k0_jet, y0_jet
from sigeom.cli import main, parse_profile_spec

FIGURE_FILES = {
    "1a": ("figure1a.csv",),
    "1b": ("figure1b_i0.csv", "figure1b_k0.csv"),
    "2a": ("figure2a.csv",),
    "2b": ("figure2b.obj",),
    "3a": ("figure3a.csv",),
    "3b": ("figure3b.obj",),
}

FIGURE_DIGESTS = {
    "figure1a.csv": "2cc3acad79d4675b91648fed5dc28d6fabec189802a8886459ce30851f224c9c",
    "figure1b_i0.csv": "ab75ff1eed7808e600eb55f112f83feafe79c90ec4494125bd66e08f70495dd2",
    "figure1b_k0.csv": "5b462dfcc11fa909ffcade01d4e8c61fb87df350b0e189800cebd8e506149dde",
    "figure2a.csv": "f2669792b895c5fc7c458f8fed245c58e40f0ec4a116e6cc0c6aea92b9172a31",
    "figure2b.obj": "65807fe9ee8b6de927f781addb205245a77185f5e61c28b1606573bccfc5f616",
    "figure3a.csv": "145a2c5883482fcc242f18ca96018ad2589b0ceda5ad60792c00e47d9910a97c",
    "figure3b.obj": "22464f099f2aae4679cf3939232738c6e080a9a0df7aa9c399b12999e6b31181",
}

# (profile spec, meridian kind, u range, v range, grid)
SPECS = {
    "bessel-j0": ("bessel:lambda=1,c1=1,c2=0", "timelike", "1:4", "-1:1", "21x21"),
    "bessel-jy": ("bessel:lambda=4,c1=1,c2=0.5", "spacelike", "0.5:4.5", "-1:1", "41x7"),
    "bessel-ik": ("bessel:lambda=-1,c1=0.5,c2=2", "timelike", "0.5:9", "-0.5:1", "64x5"),
    "expr-bessel": ("expr:f=j0(u)+0.25*i0(u/2)", "timelike", "1:6", "-1:1", "21x21"),
    "expr-elem": ("expr:f=u^2+3*ln(u)-sinh(u/4)+cosh(u/3)", "spacelike", "0.5:5", "-1:1", "21x9"),
    "log": ("log:lambda=-2,c=0", "timelike", "0.5:5", "-0.5:1", "21x21"),
    "power": ("power:lambda=1,mu=3,c=1", "timelike", "0.5:5", "-1:1", "21x21"),
    "consth": ("consth:h0=2,c1=1,c2=0", "spacelike", "0.5:5", "-1:1", "21x21"),
    "constk": ("constk:k0=1,c1=1", "timelike", "0.5:5", "-1:1", "21x21"),
}
ACTIONS = ("classify1", "classify2", "laplacian1", "laplacian2", "curvature")

# (exit code, sha256 of the output file) per (spec, action)
SURFACE_DIGESTS = {
    ("bessel-j0", "classify1"): (0, "536c591ac78b18278490e21f78b392e565f0800715f44acf3b4f6e905eec2936"),
    ("bessel-j0", "classify2"): (0, "b5fc55ce59a8d24daceecea9b7b1a744a0e5875a4ac7860c3af2e19f232db8b6"),
    ("bessel-j0", "laplacian1"): (0, "cf263295e30e41967e1f0fa00896fccbbe19463453b5f91dbb9953c7f3eec619"),
    ("bessel-j0", "laplacian2"): (0, "4ee400928ea7c166f9fa009dac9e4d30d3aa31aa247158ace568fa64e9e43130"),
    ("bessel-j0", "curvature"): (0, "0abf42824cba30a5373307badd916bdf0eba20f2bc04fc64a7ac68802f9ec3db"),
    ("bessel-jy", "classify1"): (0, "a998098eea898ff5021856af9b5d214945e7a70a3033fbdeca939ba23998f357"),
    ("bessel-jy", "classify2"): (0, "f733b25abada0fee22deecc48f64acb0dafc35cf079ba9808135e6282cf32c94"),
    ("bessel-jy", "laplacian1"): (0, "593199e7c7ef2cb46234e953a3c83d4b6fc771ed28323f766ce99b4e7c61b0a9"),
    ("bessel-jy", "laplacian2"): (0, "6b282d68effbbb110a259507a6544707d500af956e2b19cb7e9995b8bdd9880d"),
    ("bessel-jy", "curvature"): (0, "a3b4ec75300913235498930f22db40a369b92392a3f0b24276573a0f1cb9e33d"),
    ("bessel-ik", "classify1"): (0, "1499f449f6fb3910b817dab63571b141c5ade4af038a99b83d9b57d8bea5d4e7"),
    ("bessel-ik", "classify2"): (0, "83666279e409f7a8d35a1e5be37cbd907144a8811a42cb8790f5e08b522af3bc"),
    ("bessel-ik", "laplacian1"): (0, "f120cce4227f362469fcf78fea53adc957de0f000a841b7c5da56bf237a94032"),
    ("bessel-ik", "laplacian2"): (0, "255d8a51da09eafd4cee168eec893acd94855f991659f97bce68e1d65ff98f65"),
    ("bessel-ik", "curvature"): (0, "64ef324164fa17733d839caf9c70347980256573ed5120133c39e3c20ecab0a7"),
    ("expr-bessel", "classify1"): (0, "cf9cca02691e0be0519141bc771edf495d41d48c9a56958bdcb298bb7cbf3863"),
    ("expr-bessel", "classify2"): (0, "96154df9d6b4d6079d6d38b1461696c491da594ac7658e90a4c6e136a55d0960"),
    ("expr-bessel", "laplacian1"): (0, "78a9430dea5201d2c2ea984759ce72380b676d42a317df0e9e56e8fa18ade872"),
    ("expr-bessel", "laplacian2"): (0, "529d283be968290a8bbfe5eb542daf84125ab821dd7e7888fb35f6276d4d32a0"),
    ("expr-bessel", "curvature"): (0, "10e7e8dc2e750821df26eb7df847bd8257db8a4d071fd4ea800d54ae92d37477"),
    ("expr-elem", "classify1"): (0, "788e999c88d3470bd85209fd29ea52686e8c74a3cad30f5d780b6a7282047125"),
    ("expr-elem", "classify2"): (0, "9f1ad866595da4ad03f85434e3d1dddfec28c3708ddc04bcbc5bc54a38041dce"),
    ("expr-elem", "laplacian1"): (0, "f60cf5d671a55997835ee146480a784ec20299fb7b9db4b6d46b8b9000020491"),
    ("expr-elem", "laplacian2"): (0, "580d21ac84e01c5129c190dcbf6280f779f41612368d2a1726f6081628477b75"),
    ("expr-elem", "curvature"): (0, "7012e2b3a6e67dbfd935c2d56dddd8fcdb9ba6b206ed05e5775bd7699cc4796e"),
    ("log", "classify1"): (0, "b559b1e2aebfcb7ea45a081c01f4d8eb4b2f56c9ee624378c13e95d36afec284"),
    ("log", "classify2"): (0, "1fc011b477a5e3e3a8b0e645a4ea7da5ee12e6033bf5fb102d349762a1c9c57f"),
    ("log", "laplacian1"): (0, "d644973da3245e2481c34cb06a455201b6eabb28fb73bfdd6bb65a2f6d075fc4"),
    ("log", "laplacian2"): (0, "db2fbe367b8ff9da22f3f960d9505203c5487904b2130e10f02eca6b347524cf"),
    ("log", "curvature"): (0, "6fc37fe1c9dbfdad12bbfce77bb20c27a0815dacd618ece3d9945402a1bfb4dd"),
    ("power", "classify1"): (0, "426d53189aaaf7d846bd68ed07f6fb2991283f8031f2e2ec8d7889f5d9939c32"),
    ("power", "classify2"): (0, "c6837f0f537e889cb19eca9c41a041a35c55c02aab2a22eb6364af29b38f7e65"),
    ("power", "laplacian1"): (0, "788be7140ce3b1eb9e037e6e78988de46f6534064b83f06ea16fce595d5f9af3"),
    ("power", "laplacian2"): (0, "89ccce4173f095c2f05faa0fdaff835063b703df963bad548e8c16aec6c5aa3a"),
    ("power", "curvature"): (0, "13b79a2a04f9f45a17cb0cb5ff71a5a13a7b01991b8029bd61cac38838d14d42"),
    ("consth", "classify1"): (0, "37b8d79c0ef4a35cbabf80770ef1460d6ec491fd7b72a9d2787109abebf850eb"),
    ("consth", "classify2"): (0, "d6ff4ceac98f7e143d132f96e1792a58e9e2392fdcc869e96baa398a40238c63"),
    ("consth", "laplacian1"): (0, "b4fb656ea87f5726da18dcfbb12eb5ab85bcf0f6b875c39f5483ea13541f7892"),
    ("consth", "laplacian2"): (0, "f330c06c4ec901ca942111c43008cc2e1e76d934317906f18e1d9ff16ee87df1"),
    ("consth", "curvature"): (0, "922c17a0bd8d7e0c9e61dd317c8dc5b2e605028bd40a46591cdc703586d5510c"),
    ("constk", "classify1"): (0, "a77db9e624feadd893d390f4a136faef9d4871cccf2c185e2f06a9f4399e94fc"),
    ("constk", "classify2"): (0, "418c868e90e21901df9570a0f2c65bd6d7f6738bcd0058ae35656e2fab7fea1b"),
    ("constk", "laplacian1"): (0, "528a93533c62c1452538dcfb4633e6a06b0cb1c1f73c49518b5c1e5c683057a6"),
    ("constk", "laplacian2"): (0, "7243246e0d23361faffb2c91fbfca26eeb17944995011be9887e64d468836dfb"),
    ("constk", "curvature"): (0, "0616484cbe32247ddae3322f7f17985134fdab292e9adefcfcc69bd678e1fe93"),
}


# Outputs longer than one 4096-row block of the CLI writer, so a block
# boundary falls inside each: (spec, action, grid) -> sha256 of the file.
# A 101x101 mesh has 10,201 vertices and 20,000 faces.
LARGE_SURFACE_DIGESTS = {
    ("bessel-j0", "mesh", "101x101"): "1c2ac3f08404a74d586b1b36953c55820803201b823a8ac2ef2084d6152d754d",
    ("bessel-j0", "laplacian1", "101x101"): "c0860b9085ff81a41144329118ea061e68ce741cf3fcfe0a129fc80a65b209cb",
    ("bessel-j0", "laplacian2", "101x101"): "b502c5a7d2c8178598b8d0e6d5e132ff0c67e3e4b2bde140714afacc775be70f",
    ("bessel-j0", "curvature", "8193x2"): "a91e0ae8ab019028ebce97fa4870913d3ec810187921e7bae03ab05d4d016690",
    ("expr-elem", "mesh", "101x101"): "78198a1ec74a826526bb13ef59b13ffc0f5078b6eaf6897de0ad0cf0cff4ab98",
    ("expr-elem", "laplacian1", "101x101"): "1e1f3d42f2aebfdac45e081d5bbce1c324fedbe7251c2552069a876d12b660fd",
    ("expr-elem", "laplacian2", "101x101"): "3734288c5eb9681ff7a4cb3e21a481aa981024e1cde5d1951c624cc5453dac36",
    ("expr-elem", "curvature", "8193x2"): "753711836a3b0f5c5b7eba514c9aee60c1fb059cb17681ae9703d577f8c24a5e",
    # one u row of 4099 points spans a block boundary; the writer prints the
    # u, v, d3 and z columns of these grids once per distinct value
    ("bessel-ik", "laplacian1", "5x4099"): "b456afe16b924971237c390578f9096e5864fd8eee360dc3d90ff1aed9bec71f",
    ("bessel-ik", "laplacian2", "5x4099"): "210dd266feaf31e5cddc02fc093133519218661e124ca980ff2eb383aa1c63d2",
    ("bessel-ik", "mesh", "5x4099"): "fc891040e67510ee64270d68c5f25f85a735379e9a2ba4ec3da5c1b0b9422c20",
    ("bessel-j0", "laplacian1", "5x4099"): "957031ea50804bf0e857924fb538014e7d0fd8253c8a2677b74493e13a20b1c5",
    ("bessel-j0", "laplacian2", "5x4099"): "4f258f1df4e42a0bd46699dedb94150b71c644989507eef3557e4c6034b558b8",
    ("bessel-j0", "mesh", "5x4099"): "94653c5f10300e4748d065ba151424736f10150ade9e5017fbc8fd410fe141ce",
    ("bessel-jy", "laplacian1", "5x4099"): "b2d048eb5b4d3b02bb3dfba486a692163b9841700149f3ea53a3316b9eec7ba4",
    ("bessel-jy", "laplacian2", "5x4099"): "6d52272ecf07eb7ca98a3ec40ee3a8f163e04341814b8268a8cd1947298e3706",
    ("bessel-jy", "mesh", "5x4099"): "df69a33f3d8703255066d01c2c019e23ec2aa8120ede60eba3f03624af58f721",
    ("consth", "laplacian1", "5x4099"): "f4fe22cdd9116791b153349ef2545c4997800321bb581022e026af1dc510596b",
    ("consth", "laplacian2", "5x4099"): "cf8420c7972247f8102bc6ce1684564b1936129e780858e0157acdb2ca43a89c",
    ("consth", "mesh", "5x4099"): "7d1f950dcde395ad61566c1d47b6a109e6d7134cd653fdc5a4df581645ffd91c",
    ("constk", "laplacian1", "5x4099"): "39c7a226dd635f4dcf362e750594bae8068ba29dbef9ce86256a616c2f9f8aba",
    ("constk", "laplacian2", "5x4099"): "47c9fb883bfcd322d59b67798c4ff8f7d64646c6cf5af866653372b492d0d5af",
    ("constk", "mesh", "5x4099"): "7299d3fe3c509e037084f43721ccdb607d1961b897f551004fe01b73eca10604",
    ("expr-bessel", "laplacian1", "5x4099"): "9d275fd85a756c2929d2c4e712f4a5aa1555ddc80db982d38a8b7597015e394e",
    ("expr-bessel", "laplacian2", "5x4099"): "f997c0091b46adf9a7353ff5b82da6e89d4bbbbae427110f00ced690e9070d3c",
    ("expr-bessel", "mesh", "5x4099"): "c6f91a04a34385bc7312d47fa7c3637ef6cbd7562156d4708b375de619dde6a5",
    ("expr-elem", "laplacian1", "5x4099"): "f33d9b8f6269323c2046a7a48064d144d1edd250f20c331a1369799d2d7077c3",
    ("expr-elem", "laplacian2", "5x4099"): "ff0ff1f5b276381ddc3cfc651db999bcf5b3a3e060346c8385ddc22621b18af9",
    ("expr-elem", "mesh", "5x4099"): "8d3376a50b5c1e0c65eca8882b3240ff28e307f8d359271dd04f11859804fb3d",
    ("log", "laplacian1", "5x4099"): "9fffbcdc321647f0f9c9354212a6970bb78d71b8d3e1a95447ad13666242a7ac",
    ("log", "laplacian2", "5x4099"): "6e288fe7466db2a473a788826dd13b6a0f3676f73c0893965fb6a0d79546fca8",
    ("log", "mesh", "5x4099"): "0d80ae2cac2f2bb15cf74a21f402c82bd2d98a9f05555768486882b71394887b",
    ("power", "laplacian1", "5x4099"): "0b4dc1e9b572733ca0cab9c4a6ce9e2bab9c6c47591cfd595ef4d27bf2952bfb",
    ("power", "laplacian2", "5x4099"): "ae50b0a87a5b0c188077816a17e179f08b529721f803d665a141da56afc82fe1",
    ("power", "mesh", "5x4099"): "5ffe9ec0b9897e7246fef0cb49acc9f817846811ca43423672327e2cd78ecb61",
}

# one 4097-row `bessel` table per kind, all at |x| <= 25:
# kind -> (range, extra arguments, sha256 of the file)
LARGE_BESSEL_DIGESTS = {
    "j0": ("0:25", (), "8fef11050ca2258c2f4eaaf439445db84c62d1cc182eb259eb86e363417fe80c"),
    "y0": ("0.05:25", (), "f38bda08604f592ce325a7d8371886c7a79111db3d150de5e658d6a503967254"),
    "i0": ("-25:25", (), "923a6b983c67a27366ebcc56883ddee6296b1f21c1c09556b00f296e717af12e"),
    "k0": ("0.05:25", (), "9041c9a88c19a8cd8494edfcbe09648252e251af1daba171522c7dbbb481bb60"),
    "jp": ("0:25", ("--p", "0.3"), "a91ff0026d2b76cb3de925071b95c085ad509b7e2b7c01ac3fd09f6c131092d7"),
}


# the Bessel jets of the profiles whose digests moved when the Y0 and K0
# jets became the merged sums of the values, again when f'' and f''' of
# every Bessel jet came from the Bessel equation, again (bessel-ik) when
# K0 came to be summed in float64, and again (bessel-ik, expr-bessel) when I0
# came to be four plain float64 rows: (mpmath kind, jet, scale s) of each
# jet the profile takes at s u.  Each digest test also
# checks those jets at the surface's radii against mpmath, to the bound of
# tests/mp_bessel.py
PROFILE_JETS = {
    "bessel-j0": (("j", j0_jet, 1.0),),
    "bessel-jy": (("y0", y0_jet, 2.0), ("j", j0_jet, 2.0)),
    "bessel-ik": (("k0", k0_jet, 1.0), ("i", i0_jet, 1.0)),
    "expr-bessel": (("j", j0_jet, 1.0), ("i", i0_jet, 0.5)),
}


def check_jets(kind, jet, xs, where):
    """Every jet at xs within the bound of tests/mp_bessel.py."""
    for x, got in zip(xs.tolist(), np.array(jet(xs)).T):
        if kind in ("j", "i"):
            assert max(plain_jet_errors(kind, 0.0, x, got)) <= JET_BOUND, (where, x)
        else:
            assert jet_error(kind, x, got) <= JET_BOUND, (where, x)


def check_profile_jets(name, grid=None):
    if name not in PROFILE_JETS:
        return
    spec, _, u, v, spec_grid = SPECS[name]
    nu = int((grid or spec_grid).split("x")[0])
    u_range, v_range = (tuple(float(e) for e in r.split(":")) for r in (u, v))
    surface = RevolutionSurface(parse_profile_spec(spec), u_range=u_range, v_range=v_range)
    grid_u = make_grid(surface, *(int(n) for n in spec_grid.split("x"))).u
    us = np.concatenate((np.linspace(*u_range, nu)[:: max(1, nu // 400)], grid_u))
    for kind, jet, s in PROFILE_JETS[name]:
        check_jets(kind, jet, s * us, name)


def check_values(directory, names, kind=None, step=1):
    """Every step-th I0 or K0 value of the CSV files (x, value), named
    figure1b_<kind>.csv unless kind is given, relative to mpmath within
    the bound of tests/mp_bessel.py."""
    for name in names:
        rows = [r for r in (directory / name).read_text().splitlines() if r[0] not in "#x"]
        for x, value in (map(float, row.split(",")) for row in rows[::step]):
            if x == 0.0:  # I0(0) = 1
                assert value == 1.0, name
            else:
                got = modified_jet_errors(kind or name[-6:-4].lower(), abs(x), (value,))[0]
                assert got <= JET_BOUND, (name, x)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def surface_digest(tmp_path, name, action, grid=None):
    spec, kind, u, v, spec_grid = SPECS[name]
    grid = grid or spec_grid
    out = tmp_path / f"{name}-{action}.txt"
    rc = main(["surface", "--profile", spec, "--kind", kind, "--u", u, "--v", v,
               "--grid", grid, "--action", action, "--out", str(out)])
    return rc, _sha(out.read_bytes() if out.exists() else b"")


def figure_digests(tmp_path, fid):
    assert main(["figure", fid, "--out-dir", str(tmp_path)]) == 0
    return {name: _sha((tmp_path / name).read_bytes()) for name in FIGURE_FILES[fid]}


@pytest.mark.parametrize("fid", sorted(FIGURE_FILES))
def test_figure_digests(tmp_path, fid):
    got = figure_digests(tmp_path, fid)
    assert got == {name: FIGURE_DIGESTS[name] for name in FIGURE_FILES[fid]}
    if fid == "2b":  # its mesh heights are the f of J0 jets on [1, 4]
        check_jets("j", j0_jet, np.linspace(1.0, 4.0, 41), fid)
    if fid == "1b":  # I0 on [-3, 3] and K0 on [0.05, 3], its values at 200 x
        check_values(tmp_path, FIGURE_FILES[fid])


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_surface_digests(tmp_path, name, action):
    assert surface_digest(tmp_path, name, action) == SURFACE_DIGESTS[(name, action)]
    check_profile_jets(name)


@pytest.mark.parametrize("name, action, grid", sorted(LARGE_SURFACE_DIGESTS))
def test_surface_digests_past_a_block(tmp_path, name, action, grid):
    digest = LARGE_SURFACE_DIGESTS[(name, action, grid)]
    assert surface_digest(tmp_path, name, action, grid) == (0, digest)
    check_profile_jets(name, grid)


@pytest.mark.parametrize("kind", sorted(LARGE_BESSEL_DIGESTS))
def test_bessel_digests_past_a_block(tmp_path, kind):
    rng, extra, digest = LARGE_BESSEL_DIGESTS[kind]
    out = tmp_path / f"bessel-{kind}.csv"
    argv = ["bessel", "--kind", kind, "--range", rng, "--n", "4097", "--out", str(out)]
    assert main([*argv, *extra]) == 0
    assert _sha(out.read_bytes()) == digest
    if kind in ("i0", "k0"):
        check_values(tmp_path, [out.name], kind, step=64)
