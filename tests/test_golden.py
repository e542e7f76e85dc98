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

from mp_bessel import JET_BOUND, jet_error
from sigeom import RevolutionSurface, make_grid
from sigeom.bessel import k0_jet, y0_jet
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
    "figure1b_i0.csv": "ec42ae0221fc45eef8c42da9865a09f8a3128080024b321d02ef16bdeb60a5f2",
    "figure1b_k0.csv": "f358eef1121aceb8f687dac7a99c0e8ff4094167bc6b68b17f4838522c40a530",
    "figure2a.csv": "f2669792b895c5fc7c458f8fed245c58e40f0ec4a116e6cc0c6aea92b9172a31",
    "figure2b.obj": "1c3051592067b99c7eaf4d749b6b119f0e55b3c231730660cf370f60e2407dba",
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
    ("bessel-j0", "classify1"): (0, "14408d1c4dc11c94458d423b208f9aa308729c6063ea4cb5b149a07ea11deb25"),
    ("bessel-j0", "classify2"): (0, "36039b99a7365b4a86af205d353bb3c93d4f91cd59cd02ef2617c08cd04d246b"),
    ("bessel-j0", "laplacian1"): (0, "6239f7a3fa7bb4586ee9a884f7f20b02003c98b6d69bf2d746981a4b24fb36c3"),
    ("bessel-j0", "laplacian2"): (0, "a0c34d9a0b1d7484ba3562e7051d8cd709df3daaa2d425cc2fb06d4f7b027cc0"),
    ("bessel-j0", "curvature"): (0, "d9ae076152c217519d5600b495caa6db9543864a06ede83562404c3698afaebd"),
    ("bessel-jy", "classify1"): (0, "7cb2c4fbb289c1d9d4ced4e47a091eddc89a3d24143a28a6d828367a14dec3c5"),
    ("bessel-jy", "classify2"): (0, "a559c6c31a747059ec39bd9dc9343205506376fc8ef3154f246cd07a9aa5b2bc"),
    ("bessel-jy", "laplacian1"): (0, "fc25d0de5b705faba2309f149b373163ab41e46430a524bcb931b449c93e418d"),
    ("bessel-jy", "laplacian2"): (0, "db66aac2c199ab1e50378b00db256bfb16571f61b823733ee5821a036e1f9143"),
    ("bessel-jy", "curvature"): (0, "60697673a68795096393b82b14edb68bd95ac4787efd1806f890e3c7a87d6bf5"),
    ("bessel-ik", "classify1"): (0, "92c08ccdd11315b76a0be062d5368ffe276728840649b4c05c3dfd3f824c4dd8"),
    ("bessel-ik", "classify2"): (0, "96d9e04b4da0d2039ccd19e5d713b6cf0a7d84f4619a4620571380c8b2000a89"),
    ("bessel-ik", "laplacian1"): (0, "eae4f1583d89752cfcec058748ef56af360164035ec7f520e4447af1558151c5"),
    ("bessel-ik", "laplacian2"): (0, "3bd87a3b89847071ea68aa249f1a3d39a47d04e532149bf887bce1708f0d8ed0"),
    ("bessel-ik", "curvature"): (0, "25f55c5b08bd148fc07bb4ed6c1629165b1e0282290adf0253104468036afcab"),
    ("expr-bessel", "classify1"): (0, "c564f5945b58ae4b11a139f63a8745a95938842a63d09fc9382004cf80142919"),
    ("expr-bessel", "classify2"): (0, "b19c90938f4890c8c83e38daea6a9a09d7a1a84713b272b5ebb0434fe9deebe5"),
    ("expr-bessel", "laplacian1"): (0, "45667780993f786294b325ed9e11fc6ad86fa0ac136cf5dfe980d224996fe36a"),
    ("expr-bessel", "laplacian2"): (0, "9ac8f056d6f96c54f1273e6a6a1c5f64b342b6ade5261ad1ff0a8cb60a1ec7d2"),
    ("expr-bessel", "curvature"): (0, "ab2c6a06536ce23ca7b307a37bb476195b6ca80c49640949b9faefd8d6800b29"),
    ("expr-elem", "classify1"): (0, "788e999c88d3470bd85209fd29ea52686e8c74a3cad30f5d780b6a7282047125"),
    ("expr-elem", "classify2"): (0, "ff37fdac612a52ab4bda9f5668944f1ea01cfdaafd95e308feb68654e9461d20"),
    ("expr-elem", "laplacian1"): (0, "f60cf5d671a55997835ee146480a784ec20299fb7b9db4b6d46b8b9000020491"),
    ("expr-elem", "laplacian2"): (0, "580d21ac84e01c5129c190dcbf6280f779f41612368d2a1726f6081628477b75"),
    ("expr-elem", "curvature"): (0, "7012e2b3a6e67dbfd935c2d56dddd8fcdb9ba6b206ed05e5775bd7699cc4796e"),
    ("log", "classify1"): (0, "b559b1e2aebfcb7ea45a081c01f4d8eb4b2f56c9ee624378c13e95d36afec284"),
    ("log", "classify2"): (0, "6aa6f5bf50c33267975600ece068e51f9876008e37e38baad630d3223915b33a"),
    ("log", "laplacian1"): (0, "d644973da3245e2481c34cb06a455201b6eabb28fb73bfdd6bb65a2f6d075fc4"),
    ("log", "laplacian2"): (0, "db2fbe367b8ff9da22f3f960d9505203c5487904b2130e10f02eca6b347524cf"),
    ("log", "curvature"): (0, "6fc37fe1c9dbfdad12bbfce77bb20c27a0815dacd618ece3d9945402a1bfb4dd"),
    ("power", "classify1"): (0, "426d53189aaaf7d846bd68ed07f6fb2991283f8031f2e2ec8d7889f5d9939c32"),
    ("power", "classify2"): (0, "eb4d94d11f9bd5388e4059ca08d07aea7a548d21924b43a2f093acab446d6d6b"),
    ("power", "laplacian1"): (0, "788be7140ce3b1eb9e037e6e78988de46f6534064b83f06ea16fce595d5f9af3"),
    ("power", "laplacian2"): (0, "89ccce4173f095c2f05faa0fdaff835063b703df963bad548e8c16aec6c5aa3a"),
    ("power", "curvature"): (0, "13b79a2a04f9f45a17cb0cb5ff71a5a13a7b01991b8029bd61cac38838d14d42"),
    ("consth", "classify1"): (0, "37b8d79c0ef4a35cbabf80770ef1460d6ec491fd7b72a9d2787109abebf850eb"),
    ("consth", "classify2"): (0, "eda5e2c34c19ace1a9bff046d9d04bf6af9939f49b8861d1f42628edd104807a"),
    ("consth", "laplacian1"): (0, "b4fb656ea87f5726da18dcfbb12eb5ab85bcf0f6b875c39f5483ea13541f7892"),
    ("consth", "laplacian2"): (0, "f330c06c4ec901ca942111c43008cc2e1e76d934317906f18e1d9ff16ee87df1"),
    ("consth", "curvature"): (0, "922c17a0bd8d7e0c9e61dd317c8dc5b2e605028bd40a46591cdc703586d5510c"),
    ("constk", "classify1"): (0, "a77db9e624feadd893d390f4a136faef9d4871cccf2c185e2f06a9f4399e94fc"),
    ("constk", "classify2"): (0, "ebf226ea650cff43f28f48789d0b5f425ee1736ec94eef802351714cb3c2a897"),
    ("constk", "laplacian1"): (0, "528a93533c62c1452538dcfb4633e6a06b0cb1c1f73c49518b5c1e5c683057a6"),
    ("constk", "laplacian2"): (0, "7243246e0d23361faffb2c91fbfca26eeb17944995011be9887e64d468836dfb"),
    ("constk", "curvature"): (0, "0616484cbe32247ddae3322f7f17985134fdab292e9adefcfcc69bd678e1fe93"),
}


# Outputs longer than one 4096-row block of the CLI writer, so a block
# boundary falls inside each: (spec, action, grid) -> sha256 of the file.
# A 101x101 mesh has 10,201 vertices and 20,000 faces.
LARGE_SURFACE_DIGESTS = {
    ("bessel-j0", "mesh", "101x101"): "ae6ee54a6fdab6c64f1f20f08498846919d40e4eb43fa2df625a1eb35b13f197",
    ("bessel-j0", "laplacian1", "101x101"): "1c8768c506f9c75c7bdcf7891d161071e4acfa90646bd55ed82692ad6a236d07",
    ("bessel-j0", "laplacian2", "101x101"): "ab530191abd7af93172d16ffe44647e1e74f4fecc7f95835fcbc229ab2f28d41",
    ("bessel-j0", "curvature", "8193x2"): "e711139b160510aa5812219414c402a37ccf227306cc42ba8813db1d1db89ecb",
    ("expr-elem", "mesh", "101x101"): "78198a1ec74a826526bb13ef59b13ffc0f5078b6eaf6897de0ad0cf0cff4ab98",
    ("expr-elem", "laplacian1", "101x101"): "1e1f3d42f2aebfdac45e081d5bbce1c324fedbe7251c2552069a876d12b660fd",
    ("expr-elem", "laplacian2", "101x101"): "3734288c5eb9681ff7a4cb3e21a481aa981024e1cde5d1951c624cc5453dac36",
    ("expr-elem", "curvature", "8193x2"): "753711836a3b0f5c5b7eba514c9aee60c1fb059cb17681ae9703d577f8c24a5e",
    # one u row of 4099 points spans a block boundary; the writer prints the
    # u, v, d3 and z columns of these grids once per distinct value
    ("bessel-ik", "laplacian1", "5x4099"): "8f4dec0e452c6f0e8264e2f58344961346c0281be661a7951a928b677be136a4",
    ("bessel-ik", "laplacian2", "5x4099"): "b57e723f1251d14ff7a658ded412c623b76f547ce8d0a7afc2ea8fc3cd1904f4",
    ("bessel-ik", "mesh", "5x4099"): "1b0849954f6ca12d26618ba1aeb6b20246f733a20fbb022350e28fc91e4a324c",
    ("bessel-j0", "laplacian1", "5x4099"): "573363de64f82b0d19e0162d89611de7816a9354c868a11b3f856092b73a9879",
    ("bessel-j0", "laplacian2", "5x4099"): "7c7225e271a077fd5d53314d197247f77f93ea737de03e663a93a63774eeabce",
    ("bessel-j0", "mesh", "5x4099"): "7e31d72fe47c5e26c15e6cf104f9aee680bd7156292ca9593666ba276241a113",
    ("bessel-jy", "laplacian1", "5x4099"): "f63ed67b897e5a69d4e7b934cde5d0e5b84c9f257380535ddcea0d8777710bb6",
    ("bessel-jy", "laplacian2", "5x4099"): "7c7b423e94c15e0e4a21c9c29f84bd1045cb684bb446f77acc03559dda75e036",
    ("bessel-jy", "mesh", "5x4099"): "df69a33f3d8703255066d01c2c019e23ec2aa8120ede60eba3f03624af58f721",
    ("consth", "laplacian1", "5x4099"): "f4fe22cdd9116791b153349ef2545c4997800321bb581022e026af1dc510596b",
    ("consth", "laplacian2", "5x4099"): "cf8420c7972247f8102bc6ce1684564b1936129e780858e0157acdb2ca43a89c",
    ("consth", "mesh", "5x4099"): "7d1f950dcde395ad61566c1d47b6a109e6d7134cd653fdc5a4df581645ffd91c",
    ("constk", "laplacian1", "5x4099"): "39c7a226dd635f4dcf362e750594bae8068ba29dbef9ce86256a616c2f9f8aba",
    ("constk", "laplacian2", "5x4099"): "47c9fb883bfcd322d59b67798c4ff8f7d64646c6cf5af866653372b492d0d5af",
    ("constk", "mesh", "5x4099"): "7299d3fe3c509e037084f43721ccdb607d1961b897f551004fe01b73eca10604",
    ("expr-bessel", "laplacian1", "5x4099"): "f95956a1197630932a7c8d39d90ef7f0ca12817e6771c19cd571b6108ab03ee9",
    ("expr-bessel", "laplacian2", "5x4099"): "217892c53f673a3e8f782823a2887b8f17f479c03992601d0ef7a012396373fc",
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
    "i0": ("-25:25", (), "a07a3c7707c9b88233ab8a892d468bd6712018879c31d4373599060e1cc8825e"),
    "k0": ("0.05:25", (), "beb4165c0752dea2c282e7ebb23e7cb512186f2e944d5da3616285dbf683f96c"),
    "jp": ("0:25", ("--p", "0.3"), "019caa7bdc2d203c66aa02aee3e0463d0721d51da7cc6a978707f82858838b67"),
}


# the surfaces re-pinned when the Y0 and K0 jets became the merged sums of
# the values, with the Bessel jet and scale s of their profile (it takes
# the jet at s u): each digest test also checks those jets at the
# surface's radii against mpmath, to the bound of tests/mp_bessel.py
MERGED_JETS = {"bessel-jy": (y0_jet, "y0", 2.0), "bessel-ik": (k0_jet, "k0", 1.0)}


def check_merged_jets(name, grid=None):
    if name not in MERGED_JETS:
        return
    spec, _, u, v, spec_grid = SPECS[name]
    jet, kind, s = MERGED_JETS[name]
    nu, nv = (int(n) for n in (grid or spec_grid).split("x"))
    u_range, v_range = (tuple(float(e) for e in r.split(":")) for r in (u, v))
    surface = RevolutionSurface(parse_profile_spec(spec), u_range=u_range, v_range=v_range)
    xs = s * np.concatenate((np.linspace(*u_range, nu), make_grid(surface, nu, nv).u))
    for x, got in zip(xs.tolist(), np.array(jet(xs)).T):
        assert jet_error(kind, x, got) <= JET_BOUND, (name, x)


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


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_surface_digests(tmp_path, name, action):
    assert surface_digest(tmp_path, name, action) == SURFACE_DIGESTS[(name, action)]
    check_merged_jets(name)


@pytest.mark.parametrize("name, action, grid", sorted(LARGE_SURFACE_DIGESTS))
def test_surface_digests_past_a_block(tmp_path, name, action, grid):
    digest = LARGE_SURFACE_DIGESTS[(name, action, grid)]
    assert surface_digest(tmp_path, name, action, grid) == (0, digest)
    check_merged_jets(name, grid)


@pytest.mark.parametrize("kind", sorted(LARGE_BESSEL_DIGESTS))
def test_bessel_digests_past_a_block(tmp_path, kind):
    rng, extra, digest = LARGE_BESSEL_DIGESTS[kind]
    out = tmp_path / f"bessel-{kind}.csv"
    argv = ["bessel", "--kind", kind, "--range", rng, "--n", "4097", "--out", str(out)]
    assert main([*argv, *extra]) == 0
    assert _sha(out.read_bytes()) == digest
