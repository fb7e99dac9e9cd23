"""Golden report guard: the report bytes a refactor must leave unchanged.

Each forge spec's report is pinned by the SHA-256 of its canonical JSON
with `file_digests` and `scan_id` removed. Forge databases carry SQLite's
version number in header bytes 96-99, so the file digests (and the scan id
derived from them) vary with the SQLite build; the rest of the report does
not. A directory and a zip of the same spec must both match the pin. The
report is pinned redacted (the default) and unredacted.
The timeline JSON is pinned whole, and the same for both containers. The
text report, the CLI's default form, is pinned whole but for its scan id,
redacted and unredacted, and so is the text timeline; each is the same for
both containers too. The manifest is pinned by its canonical JSON with
`files` (the forge's file digests) removed; its `spec` names the output
kind, so a directory and a zip each have their own pin.

The forge's own output is pinned by content: for each database, its
`sqlite_master` entries and every row, each cell with its `typeof` storage
class; for every other file, its bytes. Raw database bytes are not pinned,
for the same header reason.

The hostile tree is built with conftest's independent builders and holds
one row per fault each table tallies, so its warning text is pinned in
full.

The plaintext Gluco-Smart tree holds one unencrypted database, which no
forge spec makes; its PHI reaches the report only through the raw sweep.
Its report is pinned like a forge spec's, redacted and unredacted.

Over the forge specs, the hostile tree and the plaintext Gluco-Smart tree,
every locator a report or a scan result holds has four non-empty fields
and a known container, and every record kind is a known one: nothing
checks these as the values are built.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import sqlite3
import zipfile

import pytest

from phiscan.fixtures import (
    build_tree,
    generate_fixture,
    paper_replica_spec,
    random_spec,
    render_manifest,
)
from phiscan.report import build_timeline, canonical_json, render_report, render_timeline
from phiscan.scanner import scan_evidence

from conftest import make_healthmate_db, make_myvitals_db

CLOCK = "2020-01-01T00:00:00Z"

GOLDEN = {
    "replica": "8a02cc9638d785983539afbdc77e926ca1bcfc9162b7b25f6b351acdbadf64a8",
    "seed0": "884d8c1c9076bbee3d82ca8bc0fd9a769871fdd0e5e9bda76115cec0353690cd",
    "seed1": "8663445f5f3f8314345fe5c47254248ecd81cd6372690d03cd2d725250f42f57",
    "seed2": "094de0115cdf8449dec860642997d26df58fce4510f8113387466d0afc1d5de9",
    "seed3": "e9e33aa65ed238e97a435b30bcdd8f035bbdb8c291ca1ce7831330af0ab71df8",
    "seed4": "a25d26612060e41d5a5e533a174226aefe5633e225464b0044efe557434d655f",
    "seed5": "526d9248bb296692d9857e4c6232a9889860646230a5e5719ab2084edbf84816",
    "seed6": "d2cc734c9f61ae3585926adb4ece72250e285a15bdf43c0653d20342ffaf6ab3",
    "seed7": "52d4c2020f7f0d5601a15dd9630b9eefa98a3a6b87c6f9396bc1db856c381695",
    "seed8": "67ba4b419fce7fbdfbcb3a281f5f00c86990769ec213fa92171862df78ccfead",
    "seed9": "08c76f2e4474c431bcac74abd933a5841b1d5642f888709bf76e02ee087bb719",
    "seed10": "576d19402df5037d24468e882e5dca496a489c2c505f62bfee34aed9670f58bb",
    "seed11": "3aea92b0ed096a57bd647568fc31eebd3f9ec64c211061499a43d559df31fc53",
    "seed12": "7b11b9d1e932f9afc3f3b216f9a0cfce42e9dbc94dbfe78bfd59fede5361c895",
    "seed13": "952f4f3233d48f1dc29ab40656b5f75f7b1bd96dfc8919d8f45cddac3fbb2edb",
    "seed14": "e1c8063f23f0788f6f84771eebe72e8a3f368b3ac3345aaf02e54f662a5ff62d",
    "seed15": "004848703897cd5e51d976245e01f3bf1f70a5fc90e368b21bd92ecf29ee0887",
    "seed16": "813ea5cb6d9742c1b2985bf9f85cd872d9339f613c9cf1487d863497cd1f2a67",
    "seed17": "a16ac55274ecfe7c419e366dc0624ac908ef8d6ba79775e922f9b232d7a36fef",
    "seed18": "34f423f111f7ca7915f06b041d7d3df149631aa1b42500ff18c5c94ca1f3c000",
    "seed19": "9122c73ee1a322f7f3bee9c748558b2fd6e9eca2f1c42adad1e17ae62d31f0ad",
}


# the same reports scanned with redact=False
GOLDEN_UNREDACTED = {
    "replica": "ee2a3453e2eaeb987c5fcd73e054d74c4ba20c3fba68b23a0a7fc27a2f1ceb92",
    "seed0": "8944a82d5b1f70303c198c3b5b4a762f0f7ac3fc7f77f27fcf5ef179339d8851",
    "seed1": "4b970336802c160875ea21bf6cf45cc268f2ca1a4e2c154b6f973f63bce50444",
    "seed2": "fde9b7c3320f673110d3a4538d85a2a6d1e8c259e13250158908a64666b70df5",
    "seed3": "0c627166cea65d5ca44dbb2a8be36e83d1a3d3df61968e1cdcec05dce6d24c45",
    "seed4": "7ce8ec9781c632e82c7a03931571f608a2d879013e6d327bd473670b5a4d3407",
    "seed5": "140bb828b01ee91e67607de8ef20b5bb9aeaafa88578a2eeea5b44e638764190",
    "seed6": "e43e6ea189903c3ff931818471fe0c584832c9e135c87f3fe5dc3a47e7e0ec12",
    "seed7": "c9b3f1b81df500f87e6e62b21cf289930e8076bc183b55c8f97fa1198df40790",
    "seed8": "bf354ed47cc4c40720492987e99716f67fd3e38eb820e7182d840b0c6029d9c5",
    "seed9": "2aa8c1c7fb9c06a05eb6fcc695cd5b769ee32e8d208607427573d9c0a0d3434e",
    "seed10": "bc96c8ded06290c60e4cfb22bf43b43bdaccce9771b1f3a10af8c753490e44df",
    "seed11": "5aa33bcc4ae9c76094e75e42384d41fd1bda0e5a3e98f1abd1169327869531e8",
    "seed12": "04d9033c7856dd3c994d0d0a8d99d75abada19dd949db9551c273e8ee400b35c",
    "seed13": "b300865cf2bb91ab257dd533a0b62b8b8d42479d4f60a839cd1ca454ab39b8c8",
    "seed14": "218b105e3ca4e7c8867587fdaa0ea27ea11b695ea61564b1c5a7e6327ff1d566",
    "seed15": "53f290e9cdb1f3197c176fa12d28907c22ed3b642372940a9277c2b2ce9da9f7",
    "seed16": "8b007889ad66529dd63f470c78e1c4bcc7dec1789a6b9d43cdba492d5302744e",
    "seed17": "1b929a163b79b0cca62d63d186002739f67ec9e2f6d8866ad40224467596a8a9",
    "seed18": "e24982c908f1e1de41b4a5f4b03d4674e187f7f8ecdd45e0c61d7203f9cd0813",
    "seed19": "133f1a7d0bd45c25fa8d6357bd53495da0bb0bcfd09029c4a9440f6feabba8e0",
}


GOLDEN_TIMELINE = {
    "replica": "ed9edecbaf8bf060aa010c8c39d4de0ff65a9ed0c0510b5937dbeccee5dd31f8",
    "seed0": "bfafae8e756eb714b013cbadd7c12045081cc7e5fd1c2f2779ac67059d81880c",
    "seed1": "4514c846ad7a35d60a614d1c42a0c2b78e64d87f8d4be9aabaefecdbbfe072a9",
    "seed2": "bb5c40d12ef9f1ade4a4977a4bcd94d32590b3c8a46faad55d12b1e9b14b5fe5",
    "seed3": "9628f4310081bc7b95d5db8081e268153d9d3cc4ce14be87ed282b1d74309ad4",
    "seed4": "61c61944f9d759a5092595ecc311ee2731bb9c95e6ee3ec769f5b0c9ebf2ce70",
    "seed5": "02c71781ccce9e1ffd4cb344ef998aa2f95d69a60460dfc259ed90902926e622",
    "seed6": "42a3b24274ba1fa38b24e5acd334dd67d28e7c7f3e422c2d202a982f4c81dedc",
    "seed7": "c8e3be49e837cdc6700517cbe5c01e09d06c362a0f1a0b0ad1aaee4bcb1ee467",
    "seed8": "fa0cbcdfd3ca72422456d6454fe95bf65babf5fbcca830500813891d1f674d1e",
    "seed9": "ee7b1933db3fadac00aaa58bcd5aabe2d37b62dea7e9b879804339f39fd34a5e",
    "seed10": "4bfaafcae6dd5af856fab14ab11120464d3bf59be0e8b5459eec3133d015b9b8",
    "seed11": "40bd9f7d7cce647136c084d8cd81458898b2b58501b23b3c9a0c16ffebaa0ba1",
    "seed12": "f5c0bc194082af5cef4b6da191082c610eca5584e0dc893612d0a628ebf8b531",
    "seed13": "f8b80c2a47f6d51d36e0cb9c1754b2f8d8e15fe5e4598743e5b5931137c57ff3",
    "seed14": "e67d84bbb571d7c380ed373e040e747d9f1769ffb947a5cd3011d6108aa45469",
    "seed15": "ad32a7ef933d81f66a0ea9ae1a280ca67e269f9a0ea3cb86251aea83711ca0f0",
    "seed16": "c5ec7101c6fe316c0896943de6b54d9eb6ac5ee17e8ec614f8d31f5b5d8a1700",
    "seed17": "cc18cf82caf76060a61c7bb14d38a1c270d39052f6c650aa2efdfaa58c3b6000",
    "seed18": "f0937cfbd539de68c66cca78abb764677cfe53ef63b7ec8a77eae749e54c3e5b",
    "seed19": "4616ebfb5584e26bba11ccfd18805090221d42bccffff3b5600449fa96d460de",
}

GOLDEN_MANIFEST = {
    "replica": ("3f4fdda2da7596981231ea791e9d939b412c362fb3f0969b5682b9504c35bcb0",
               "6a5fec461df977b1af67166927572bb156605f88b20617adfe7f6b0fa13fde19"),
    "seed0": ("da4e0955873a3dc1201a5a76ea9702f065a697d87cbb2ddc6e8a2b5852b2dad9",
             "c311fdb94e17c4a7604a4136aabb6414af0e3f7f242bc6b619700d1b7dcaa797"),
    "seed1": ("23e526fcdc6a2189474c6a45ccbe47ebf0a069924ee76967278d64b81604c8b0",
             "3bc313c4e983fde67b3f4de222f5b2a5189befe2003ef8723ef5b7fd772461f4"),
    "seed2": ("298961bca804a09840d7ca6bd4b228e0f6593df74761aca92098fc29f6fd7fa2",
             "af944e401def40ba0fb525eb902a96217227b97048b5864d494810b840f8b473"),
    "seed3": ("aa798df2c1146b605dcdbbecbde0eb2957bdc7ad67b587482176f4b41211248b",
             "3fec6911957417c9cbf1c5f5b93cc89f18d9726cbe44c87b633782983a62c120"),
    "seed4": ("c5f68046f130fd919112d6bdbe233c83a97a4b89d4195339cf136e764026005c",
             "5d113acf91cc750b4be941be5421b5c2dacf90e86d927f6e3bb6bdc54499bc3b"),
    "seed5": ("ea2589477f4c5be2fa1fee11e613859ddb126bf4d8f6ea8d8ee5eee3a8d77178",
             "b388f3aaf4390c10c725ab8299319c9a8777b477dcfc487769582ca6615d0d81"),
    "seed6": ("c8de7494fac9a69b841032e2d30c1689e46c923abe7d4ca471a0da0afc69e6bb",
             "9535083639f3b36ce8fd5b3ab2b8d502a4ebc5f04d67205a1eadd7ef89c86c51"),
    "seed7": ("a2a717e7a2e1e3099a31fffcc056b0b423dada1775958f7bbbe96946f6d9a3fa",
             "989d867a1cf9b20354e47d94bdab36d36f91ebba4d4104f16e58748f512e913a"),
    "seed8": ("27cd3e6a7d2d6a1270022a3bdd32de691999967957631c23f3a8b72f01fa0c54",
             "2ab8439906f5c4b1ac72da22ad7cc2376ea41d4e9ed9439c53aa9777a66f9141"),
    "seed9": ("041bf2ff8abd31fdb4222f54b264c3f6f5e1983a401817673f65c94acd25deb1",
             "1e7f2de8f3a505d4c2c1a92cbac73fb117c1f8b5f5c001a6d747a7638b836daf"),
    "seed10": ("e49752bb75b52badb7be4f2e45ec092af6bf414551fc18a6761787b8f681ab01",
              "483326344f209632141ccbdc54c260cc5a1c544cf9c9215301b7c5679c048762"),
    "seed11": ("cb092c75007dd26537ece68a69e9021b0797ce6e109fd940d3bfa41ec9ffbd49",
              "322871e99a1f39f5f8233e18c8aba8819aec81db825380641e48c47fcf73a5b1"),
    "seed12": ("029b1700d099275eda5d40b984ad3fbadd6409ac8606b6f732890d4a1937ffb2",
              "c58d048cfc460c2e83bc9cc7c1cbb8213abf1590db8498d9f06b00502389a18b"),
    "seed13": ("9faf08524d6467865010fc944fad12677df89847055da8b75c169a27307ba64c",
              "6e315118664df3753966850615c74f990f04be891c180298c3a2f6657d197948"),
    "seed14": ("3bac5aa2fd649306d6d5262d9607ca84e1eb4deb2c6601ccff876cb8fe30b530",
              "31c2f59cb9b2e718cf952ffbc93095df464a36bf7f50f54ed599954ff850137d"),
    "seed15": ("d8ce8af8d7f2e9aa9c77c6041dd57a22e1cb2ee88690b61092c82e98d8db0f7a",
              "be53c10a5b8ae1cfd9203dbba926e73ba4a83c8d6c191704d27b309eb4e5f068"),
    "seed16": ("f6dab3e7b4c2a17fc5f2bff02a8f50a87f500884061c847919c47d0ffe235583",
              "8b5c53febd4197dba19592f952cbcd60f0438e14d52b70fe22379d880d26ea28"),
    "seed17": ("1c6646f1712a09c528abc23d000d5cd1f0ee0919c923aeb59f6a6ff62038d4d5",
              "b673ad7ce44dc8b5412cbd8edb834bc3d718dfa4092ec8c56b34305c25d334f1"),
    "seed18": ("f10345b9d4ab7b09a8fbf66ba036c65de467abebc5c9e70c32291aa9ec6e9748",
              "12da72cbd42bf6e73a8e081d88177b563116e71a307b1d0ddb534e404490aed5"),
    "seed19": ("117dc83702f30b31a353d0c9d19e6b7cc2b21c5c238acbef7cf01f80d9123ce9",
              "2a23cc244d5b6722a52bfaf6fbd148fbe0ac9a00c918d0ad74cc8f367e1b9251"),
}


# the text forms, each the same for both containers: the text report redacted and
# unredacted, its scan id blanked (it hashes the file digests), and the text timeline
GOLDEN_TEXT = {
    "replica": ("e841b678368cedc187712560a1e976b085eede52e30d822502b11216a814886d",
               "3b3e5cd79b17fed1729c697fdd97c71a99946a927a729dca9b4faf061e67f221",
               "9c089263eb2fc4b70ee0b1ab18d6251a0a8dcaa11aefe3aa99c8f52e8747c300"),
    "seed0": ("31bf271f03cf3c541e44109729288c7976ff4d1d6b4a1845d045573e0f5fe2f7",
             "2f20daff6eadc2ce368b3558e76da85c1daef6c843c5a97af55cfd1171bbf3c5",
             "0e41e4f85418f8991a6b48e332d1a0733ec59d40196d781dc0b4cfac7968f8dd"),
    "seed1": ("925d264b0e93839a36f811b6ddd8232a375721ca6709b6056ab7fb506571d571",
             "902c6467a35ad33582b142d10cc42321e074d9f1fb0be1f6198828811d3c1432",
             "1a01971a3478b237352085eafeaa9a5d42cfdeb8c41f7ece7f7f6be34a6548ab"),
    "seed2": ("b098168e471f625c8c2a5dfd4eb590cddbb007176bda85f850c14e2a24483c5d",
             "7810b36084c0d23cb6361c794596f5eb2ffb2b0338f2acdfc65bd0ec351dff14",
             "9c29d337fa924fe8d4f254c00dd55bbc8f3af3a1afead132ecf42cabe57eeb1a"),
    "seed3": ("99e515b94a5711bcb759613ef0fb88fe886db951a6c6bd5741e703d4b7636b74",
             "5c1681ce515d5b215cc5cd5b2add3c7377aace6405c849965d98cc89e6f90b2e",
             "6d5d1a5aa2dc23ed0293334ec1b3afc882f393c5498e7669132912aa555126cb"),
    "seed4": ("5bf19f01946ac51e3ceff7f000b1d58885cb01f7a11637e531147a8e5b16086c",
             "1e142f0d928be5abecf6c6afe6a4ea04b7afcf94bf2b5ff336a6cda090500870",
             "5a12ed0d7919d1deb834bb45eafa49422c4a02c9725505c08d6d5166f3f9fd97"),
    "seed5": ("46e35a3fe64cd551f75a72c721507e39043a0815c07bc50a25ca43a7210870ba",
             "7197b9515e1ed7b510857bdf0e6351a84dcb10c09aa48c1a8904e3ec8b51f7f8",
             "101dca090d8b898e52d29be9d28e25de8e503c5805dd9e4313cdfc8679232f07"),
    "seed6": ("027efca5fa2666929ddc3f701fbabc3614ae41311c2aac6b9a0e7550cc864437",
             "d1ae0c916d07b242cd0b3a5890130b177058613a8e35341e6cfb79f4651f25d9",
             "e38a29c4827dbcf1081e609d86afba3a897216b17383e2ab3673619689866002"),
    "seed7": ("760ddef4eebef52ab467b48bd0ba7877d14ec25b7c36989aba2324cdf5fb3908",
             "5a808e521d0adb0a2c882ef175ece31b1a8b9d6abec71fd45a18481fc7ad8140",
             "d4638f979ce75e79bc3ec7cf123e80699d0d34eb6f462d6fd3bc0fc0a2ebb422"),
    "seed8": ("73cb36a03939d7a3975c42308aa2c1b0d74ae22b2b79a8a993c155f14e4bf785",
             "22d2d9ca574ddc5cd53e82ef60cd82781be32bfd759140113ca92fb219465079",
             "07583fd5a7423a618ae29d51a84f0e6076a8ad464a47e0aabff55ef5503e7558"),
    "seed9": ("ccd6b328cc3efa0c7967da9758088b3bb09283ddae4c6a142bc671882cdae99b",
             "989eee918a9dd4602183cc3cb54a586d850455946febe99c9a7267c870852e13",
             "b5e42e857be8eaec003ca35d9156d2289abd6ea8a752e0745276d7214e20bac1"),
    "seed10": ("eb1ef2ed3a16bd9c689a6774c3c8a25fa07e38c745e434feaf092b9139fa3612",
              "b5a60cef5afc307f3f474aa54b16c8b54718afd72b16f33b137aabac9cf65c4f",
              "a512fa9b9cb11ff7d7b1656d1705f0beb25125201d49b479986e0f14930868ce"),
    "seed11": ("81cc50618fad7303be785a5447fa0d962ce6f70d222eac470bbcaaff935b1a33",
              "17bb2c47ca432c04fdae13486eb1b223aa917edb65add617fa5ecc50fb159b06",
              "809497fd6cb4d40804c72ad896b218c0e7099f39f23a454656e7cfab4dccc2b3"),
    "seed12": ("f1e1d29279e1b0d7bcc3260c8a2f3ac090aaf05e116bc3d2cda40b942ffb7b17",
              "c54a95262a83e02f57acba87a3c31ee48c9be47af7231c3818cf7a6fa52d2c87",
              "1f3e477c072b013eadea2ab1296e109e0f3372e09ac0886b2a3e35a8ec9a8bbb"),
    "seed13": ("a15d1a8ac8081e6db3a1e18744849e24e45cfd9b23636766875e8f4a9a3f4bd8",
              "829f083095a0a74577a9b6fbb096f58492304b37a2a4664872f182bd7d5e8cee",
              "507e328fdeb0ec027d68f4717786b114422f108d565a5dbd80fe5215e795a162"),
    "seed14": ("2a98f8f04531035962913fcd194024c7eebee5c50ab800daf8bb4a18aa5a6dac",
              "46c726aa0bd99af40dab69b926cb8a4c4b677ba131e61ad2c02735b91a58389b",
              "37141782e804b78f0b38b92e1dfc7344f81859ec22bb06b6715f562c20fc1a44"),
    "seed15": ("bc1193ac4acfd870c79f1147469ecfb854b8d67cab807d9c9eaa554eaa741c83",
              "03e0a1d3833f2a354fc8e2ff12681273a18def867f2dbe5b5e6b0b9acbd50e0e",
              "8bcd85fc9deadc1ef920e87c51162afed13dbf518ed921f8e4fa8f27d95f3b25"),
    "seed16": ("53a1359656d73e8afc0c4df26449b035c215c2bf38b9913e50bc9a057a50095d",
              "9a1f9f5fb146075c9f14980bda2f41a3812c76ec42949a4ceca7787b75cb2b77",
              "b479872a6faf99300caa6f4a4ffd1225da9121ee11e9e55c97e11425fbfb974e"),
    "seed17": ("0ab3ed41de936660503598a83a941fcf6cb842fa2868f0952fdcbada61c4df6d",
              "a9f3b98ad82c9fe40f3cec969e99860c97b1c3dffd6a5f038bb280af776a8610",
              "6db889fa5cf1d2e57f0f76760c3bcade28c9e757e73c6f8c5cc235d4594691cf"),
    "seed18": ("80d54cb96a23b24178e5943216b974b289bf763637636d34eb9bd3811b5061fb",
              "d1b8bb6a95d7c42769d00dc3168780f7bcf9f347f79bcbec6c10a5a05aa8089d",
              "8357bda29e948600ce1eeeff6457090a93ece72951903a0aa78944cdcdd5c1bf"),
    "seed19": ("ef976f3613983903a0e8f804739c1b11930f3134eb4f0768236cbf0ac3114bd7",
              "6012cf01ed065ae235c5f881dc62bf01aa247c5e3214dd7566d712db80421a98",
              "c2ad92014ef6cc351ae5e9a8ce0ceb44d546d80947f2b56767bbf03ca60fad9b"),
}


GOLDEN_CONTENT = {
    "replica": "aa1e6bbc2be1e5ec443ba534fba4421223001c66c16933d1470a9192008006a6",
    "seed0": "d213c1cd533cd50f5d34298c6d9360c27f64817c0791e35ccefdaba8948ecd1f",
    "seed1": "5facd36c6149cbe4a2dab39621c3746f357ab88012e4be2a23edee5dafa05477",
    "seed2": "d7d5f8deae834fc19eb44b653000a9f0f9847403bb2506cb38693532d885c792",
    "seed3": "21d0c85694f396673964d27393bf6154f67b7f9f4e51e61209a4e2ad3ca083e9",
    "seed4": "40af4af0a881f0a27df1f262526974909bcd5bb9e409f4d25f8df0fa7324d2f8",
    "seed5": "309c3d47b7cb271a8feafe37722bf8674c49e7db1bf18ed7ccbe1df5276f0499",
    "seed6": "b469536399c6d7d55dcc82bce44e51e244003593300ecebdddf35c18abab5956",
    "seed7": "56b6a43ef4905d0fe57ee8018b20463a5bffdc17a30f2c90e796eb6c4bb125f7",
    "seed8": "ea784e4d31830a42df369cca9d35cb7d083c86f7e7692884f4eeee89d8e79ca3",
    "seed9": "caee722cec0f6d46d8b2a38bd020255441031909f44813e8bfba49ce88ef4820",
    "seed10": "e197315cefe6a9cd1d212e3e9e2f4484373263bfd085b99007760624f5ab07c9",
    "seed11": "a165b1e5695cdbbcc58f652aed825695fd7ed9a4185eccfa0e770184021bc0e3",
    "seed12": "cbe6b1f1ec6207cbf220eb65f1fedee54a949daf3d0891a0403ea9e3a3cdde95",
    "seed13": "302332565e42ef3351a78e8e1f796d9ddd8e9cfa13a1892e99bbdac392a07549",
    "seed14": "a24a28458f3aca7990120247c6aec5261c2e835465062d7a6f7d8f829e006034",
    "seed15": "bfb4ff9c767c7bd653e9cdea91c45032278217e3d1f5b3a91f7cc79e01144fec",
    "seed16": "ead62b3f7f2ef6fbd4c0931b1d48089d11a8026337da31b66a9c54ae0960d342",
    "seed17": "ed6c695f5bcc188aa5f31b825b4a7c1b23a559e4921e3cfd86b74278ce2fe6c4",
    "seed18": "70bba28d3c650a3ed277ec115de6838db09cb30746bb59b43bc340210be39c20",
    "seed19": "13ee91592814f41f589f1852ab46aad0c68ae21291986ba0b0df9c6329333532",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_sha(report) -> str:
    doc = json.loads(render_report(report))
    del doc["file_digests"], doc["scan_id"]
    return _sha(canonical_json(doc))


def _pins(spec, output_kind: str, out, redact: bool) -> tuple[str, ...]:
    manifest = generate_fixture(dataclasses.replace(spec, output_kind=output_kind), out)
    doc = json.loads(render_manifest(manifest))
    del doc["files"]
    result = scan_evidence(out, fixed_clock=CLOCK, redact=redact)
    events = build_timeline(list(result.records))
    text = render_report(dataclasses.replace(result.report, scan_id=""), "text")
    return (_report_sha(result.report), _sha(render_timeline(events, "json")),
            _sha(canonical_json(doc)), _sha(text), _sha(render_timeline(events, "text")))


# the redacted report keeps the bare spec name as its id
@pytest.mark.parametrize("name, redact", [
    pytest.param(name, redact, id=name if redact else f"{name}-unredacted")
    for redact in (True, False) for name in sorted(GOLDEN)])
def test_forge_reports_match_golden(tmp_path, name, redact):
    spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    dir_pins = _pins(spec, "directory", tmp_path / name, redact)
    zip_pins = _pins(spec, "zip", tmp_path / f"{name}.zip", redact)
    report = GOLDEN[name] if redact else GOLDEN_UNREDACTED[name]
    assert (dir_pins[0], zip_pins[0]) == (report, report)
    assert (dir_pins[1], zip_pins[1]) == (GOLDEN_TIMELINE[name], GOLDEN_TIMELINE[name])
    assert (dir_pins[2], zip_pins[2]) == GOLDEN_MANIFEST[name]
    text = GOLDEN_TEXT[name][0 if redact else 1], GOLDEN_TEXT[name][2]
    assert (dir_pins[3:], zip_pins[3:]) == (text, text)


def _forge_content_sha(spec) -> str:
    tree, _ = build_tree(spec)
    digest = hashlib.sha256()
    for path in sorted(tree):
        data = tree[path]
        digest.update(repr((path, len(data))).encode())
        if data[:16] != b"SQLite format 3\x00":
            digest.update(data)
            continue
        conn = sqlite3.connect(":memory:")
        conn.deserialize(data)
        master = conn.execute("SELECT type, name, tbl_name, sql FROM sqlite_master"
                              " ORDER BY rowid").fetchall()
        digest.update(repr(master).encode())
        for kind, name, _, _ in master:
            if kind != "table":
                continue
            columns = [info[1] for info in conn.execute(f'PRAGMA table_info("{name}")')]
            cells = ", ".join(f'"{c}", typeof("{c}")' for c in columns)
            rows = conn.execute(f'SELECT rowid, {cells} FROM "{name}" ORDER BY rowid').fetchall()
            digest.update(repr((name, rows)).encode())
        conn.close()
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_forge_content_matches_golden(name):
    spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    assert _forge_content_sha(spec) == GOLDEN_CONTENT[name]


def _hostile_tree(tmp_path):
    tree = tmp_path / "hostile"
    mv = tree / "iHealthMyVitals.V2" / "Databases"
    mv.mkdir(parents=True)
    t, acct = 1530829549, "a@b.co"
    spo2 = (0, "5CF821DED2ED", acct, "PO3M", "5CF821DED2ED", t, t + 40, t)
    make_myvitals_db(
        mv / "androidNin.db",
        bp=[(120, 80, 65, t, "dev", "ok", acct),
            (None, 80, 65, t, "dev", None, acct),                 # null vital
            (120, 80, "fast", t, "dev", None, acct),              # non-integer
            (80, 120, 65, t, "dev", None, acct),                  # sys < dia
            (120, 80, 0, t, "dev", None, acct),                   # pulse 0
            (120, 80, 65, 500000000000, "dev", None, acct)],      # ambiguous epoch
        spo2=[spo2 + (97, 89, 9.7),
              spo2 + (None, 89, 9.7),                             # null vital
              spo2 + (97, "x", 9.7),                              # non-integer
              spo2 + (101, "x", 9.7),                             # converts before range
              spo2 + (0, 89, 9.7),                                # Result out of range
              spo2 + (97, 0, 9.7),                                # PR not positive
              spo2 + (97, 89, -1.0),                              # PI negative
              spo2[:6] + (None, t) + (97, 89, 9.7),               # null LastChangeTime
              (None,) + spo2[1:] + (96, 80, 3.0),                 # UsedUserID defaults
              ("u",) + spo2[1:] + (96, 80, 3.0)],                 # non-integer UsedUserID
        weight=[(80.5, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),
                (80.5, None, 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),     # null vital
                (80.5, "heavy", 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),  # non-numeric
                (0.0, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),      # weight 0
                (80.5, 24.1, 120.0, 55.0, 60.3, 2200.0, 3.1, t, acct),    # BodyFat > 100
                (80.5, 24.1, 18.2, -1.0, 60.3, 2200.0, 3.1, t, acct),     # BodyWater < 0
                (80.5, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1, 0, acct),     # epoch 0
                (70.0, 22.0, 18.2, 55.0, 60.3, 2200.0, 3.1, t, None)],    # no account
        env=[(45.0, 22.5, 300.0, t),
             (45.0, 22.5, None, t),                               # null column
             (45.0, "warm", 300.0, t),                            # non-numeric
             (101.0, 22.5, 300.0, t)],                            # humidity > 100
        users=[("Pat One", "1980-01-02", "UTC", acct),
               ("Pat Two", "1980-01-02", "UTC", "not-an-email"),  # bad email
               ("Pat Three", "1980-01-02", "UTC", None)],         # no email
    )
    hm = tree / "com.withings.wiscale2" / "databases"
    hm.mkdir(parents=True)
    ms, mac = 1541807000000, "00:24:e4:5a:ee:6c"
    make_healthmate_db(
        hm / "withings-wiscale.db",
        devices=[(1, ms, ms, ms, mac, 431, None, 77, 4, 43),
                 (2, ms, ms, ms, "not-a-mac", "x", None, 77, 4, 43),   # MAC checked first
                 (3, ms, ms, ms, mac, "x", None, 77, 4, 43),           # non-integer
                 (4, ms, ms, ms, mac, 431, None, 150, 4, 43),          # battery > 100
                 (5, 0, ms, ms, mac, 431, None, 77, 4, 43),            # epoch 0
                 (6, ms, ms, ms, mac, 431, None, None, 4, 43),         # null battery
                 (7, ms, ms, ms, "00:24:E4:57:12:C4", 1751, "UTC", 78, 1, 6),
                 (8, ms, ms, ms, None, 431, None, 77, 4, 43)],         # null MAC
        measures=[(1, ms, 1, 80.5, 1),
                  (2, ms, 4, 120.0, None),
                  (3, ms, 999, 42.0, None),                   # unknown code: raw hit
                  (4, ms, 1, -5.0, None),                     # non-positive value
                  (5, ms, "x", 10.0, None),                   # non-integer code
                  (6, ms, 1, "heavy", None),                  # non-numeric value
                  (7, 0, 1, 10.0, None),                      # epoch 0
                  (8, ms, 1, 10.0, "dev"),                    # non-integer deviceid
                  (9, ms, None, 10.0, None),                  # null code
                  (10, ms, 999, -1.0, None)],                 # unknown code wins
        users=[(1, "Pat Example", "F", "1985-06-15", "pat@example.com"),
               (2, "Pat Bad", "M", "1990-01-01", "bad-email"),   # bad email
               (3, None, None, None, None)],
    )
    old = hm / "old"
    old.mkdir()
    path = make_healthmate_db(old / "withings-wiscale.db")
    conn = sqlite3.connect(path)
    conn.execute("ALTER TABLE users DROP COLUMN email")
    conn.execute("INSERT INTO users VALUES (1, 'A', 'F', '1980-01-01')")
    conn.commit()
    conn.close()
    return tree


# the two databases of the hostile tree that a row warning names
HM_DB = "com.withings.wiscale2/databases/withings-wiscale.db: "
MV_DB = "iHealthMyVitals.V2/Databases/androidNin.db: "

HOSTILE_WARNINGS = (
    'com.withings.wiscale2/databases/old/withings-wiscale.db: users: no such column: email',
    HM_DB + "devices:2: malformed row (macAddress not colon-hex: 'not-a-mac'), row skipped",
    HM_DB + "devices:3: malformed row (firmware is not an integer: 'x'), row skipped",
    HM_DB + 'devices:4: malformed row (battery out of [0,100]: 150), row skipped',
    HM_DB + 'devices:5: malformed row (associationDate: raw epoch must be positive, got 0), row skipped',
    HM_DB + 'devices:6: malformed row (battery is not an integer: None), row skipped',
    HM_DB + 'devices:8: malformed row (macAddress not colon-hex: None), row skipped',
    HM_DB + 'measure:4: malformed row (value not positive: -5.0), row skipped',
    HM_DB + "measure:5: malformed row (type is not an integer: 'x'), row skipped",
    HM_DB + "measure:6: malformed row (value is not numeric: 'heavy'), row skipped",
    HM_DB + 'measure:7: malformed row (date: raw epoch must be positive, got 0), row skipped',
    HM_DB + "measure:8: malformed row (deviceid is not an integer: 'dev'), row skipped",
    HM_DB + 'measure:9: malformed row (type is not an integer: None), row skipped',
    HM_DB + "users:2: malformed row (bad email 'bad-email'), row skipped",
    MV_DB + 'TB_BPResult:2: malformed row (Sys is not an integer: None), row skipped',
    MV_DB + "TB_BPResult:3: malformed row (Pulse is not an integer: 'fast'), row skipped",
    MV_DB + 'TB_BPResult:4: malformed row (systolic/diastolic out of order: 80/120), row skipped',
    MV_DB + 'TB_BPResult:5: malformed row (pulse not positive: 0), row skipped',
    MV_DB + 'TB_BPResult:6: malformed row (MeasureTime: 500000000000 is in the ambiguous band [10^11, 10^12): too large for epoch seconds, too small for epoch milliseconds), row skipped',
    MV_DB + 'TB_SPO2Result:2: malformed row (Result is not an integer: None), row skipped',
    MV_DB + "TB_SPO2Result:3: malformed row (PR is not an integer: 'x'), row skipped",
    MV_DB + "TB_SPO2Result:4: malformed row (PR is not an integer: 'x'), row skipped",
    MV_DB + 'TB_SPO2Result:5: malformed row (Result out of range: 0), row skipped',
    MV_DB + 'TB_SPO2Result:6: malformed row (PR not positive: 0), row skipped',
    MV_DB + 'TB_SPO2Result:7: malformed row (PI negative: -1.0), row skipped',
    MV_DB + 'TB_SPO2Result:8: malformed row (LastChangeTime is not an integer: None), row skipped',
    MV_DB + "TB_SPO2Result:10: malformed row (UsedUserID is not an integer: 'u'), row skipped",
    MV_DB + 'TB_WeightOnlineResult:2: malformed row (BMI is not numeric: None), row skipped',
    MV_DB + "TB_WeightOnlineResult:3: malformed row (BMI is not numeric: 'heavy'), row skipped",
    MV_DB + 'TB_WeightOnlineResult:4: malformed row (Weight not positive: 0.0), row skipped',
    MV_DB + 'TB_WeightOnlineResult:5: malformed row (BodyFat out of [0,100]: 120.0), row skipped',
    MV_DB + 'TB_WeightOnlineResult:6: malformed row (BodyWater out of [0,100]: -1.0), row skipped',
    MV_DB + 'TB_WeightOnlineResult:7: malformed row (MeasureTime: raw epoch must be positive, got 0), row skipped',
    MV_DB + 'TB_TemperatureHumidity:2: malformed row (Lighting is not numeric: None), row skipped',
    MV_DB + "TB_TemperatureHumidity:3: malformed row (Temperature is not numeric: 'warm'), row skipped",
    MV_DB + 'TB_TemperatureHumidity:4: malformed row (Humidity out of [0,100]: 101.0), row skipped',
    MV_DB + "TB_Userinfo:2: malformed row (bad email 'not-an-email'), row skipped",
)

HOSTILE_KINDS = {
    'blood-pressure': 2,
    'device-registration': 2,
    'environment': 1,
    'oximetry': 2,
    'raw-hit': 2,
    'user-profile': 4,
    'weight': 3,
}


def test_hostile_rows_warnings_and_counts_match_golden(tmp_path):
    result = scan_evidence(_hostile_tree(tmp_path), fixed_clock=CLOCK)
    assert result.report.warnings == HOSTILE_WARNINGS
    assert dict(collections.Counter(r.kind for r in result.records)) == HOSTILE_KINDS


GOLDEN_GLUCO_PLAINTEXT = {
    True: "bc7a047bc40ee43ed903b6ae46206c5d4da8538ab05d1f0f803df733ff526eb4",
    False: "97acd56d6f33462bf1dbf48b4c730747e5dcae52c23f4eb36506ac49d1cfddae",
}


def _gluco_plaintext_tree(tmp_path, output_kind):
    """A Gluco-Smart root whose database is plaintext SQLite, beside a user_info.xml."""
    tmp_path.mkdir()
    db = tmp_path / "plain.db"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
    conn.executemany("INSERT INTO notes (body) VALUES (?)", [
        ("patient ssn 078-05-1120",),
        ("paid with card 4111 1111 1111 1111",),
        ("contact 219-09-9999.pat@example.com",),  # an email that holds an SSN
    ])
    conn.commit()
    conn.close()
    files = {
        "jiuana-androidBg.start/Databases/plain.db": db.read_bytes(),
        "jiuana-androidBg.start/shared_prefs/user_info.xml":
            b'<map><string name="UserName">Pat Example</string>'
            b'<string name="DeviceID">BG5-0012AB</string></map>',
    }
    if output_kind == "zip":
        out = tmp_path / "gluco.zip"
        with zipfile.ZipFile(out, "w") as zf:
            for name, data in files.items():
                zf.writestr(name, data)
        return out
    out = tmp_path / "gluco"
    for name, data in files.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(data)
    return out


@pytest.mark.parametrize("redact", [True, False], ids=["redacted", "unredacted"])
def test_plaintext_gluco_database_report_matches_golden(tmp_path, redact):
    shas = [_report_sha(scan_evidence(_gluco_plaintext_tree(tmp_path / kind, kind),
                                      fixed_clock=CLOCK, redact=redact).report)
            for kind in ("directory", "zip")]
    assert shas == [GOLDEN_GLUCO_PLAINTEXT[redact]] * 2


# What a report may hold; locators and records are built without a runtime check.
LOCATOR_CONTAINERS = {"sqlite-table", "xml-file", "raw-bytes"}
RECORD_KINDS = {"blood-pressure", "oximetry", "weight", "environment", "user-profile",
                "credential", "device-registration", "raw-hit"}


@pytest.mark.parametrize("name", ["replica", *(f"seed{seed}" for seed in range(40)),
                                  "hostile", "gluco-plaintext"])
def test_every_locator_is_complete_and_every_record_kind_is_known(tmp_path, name):
    if name == "hostile":
        evidence = _hostile_tree(tmp_path)
    elif name == "gluco-plaintext":  # its raw sweep gives findings
        evidence = _gluco_plaintext_tree(tmp_path / name, "directory")
    else:
        spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
        evidence = tmp_path / name
        generate_fixture(spec, evidence)
    result = scan_evidence(evidence, fixed_clock=CLOCK)
    report = result.report
    locators = [f.locator for f in report.findings]
    locators += [loc for vs in report.violations.values() for v in vs for loc in v.evidence]
    locators += [r.locator for r in result.records]
    if not name.startswith("seed"):  # some random specs plant nothing a locator names
        assert locators and result.records
    for loc in locators:
        fields = (loc.package_name, loc.relative_path, loc.container, loc.detail)
        assert all(isinstance(field, str) and field for field in fields), loc
        assert loc.container in LOCATOR_CONTAINERS, loc
    assert {r.kind for r in result.records} <= RECORD_KINDS
